#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
double v[6];
int p[6];
double T[6][6];
double S[6][6];
int g0;
pure double fillf(int i, int j) {
  return (i * 2 + j * 5) % 7 * 0.29999999999999999 + 2.7000000000000002;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 6) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = 2.7000000000000002;
  if (y < 0.25) {
    r = x + x;
  } else {
    r = y + x;
  }
  return r + 0.29999999999999999;
}

pure double fd1(double x, double y) {
  double r = y + 1.5 + (1.5 - x);
  if (x < 0.125) {
    r = y + y;
  }
  return r * 1.3;
}

pure int gi0(int a, int b) {
  int r = a + a - (b + 2);
  if (r % 3 > 1) {
    r = r;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(6 * sizeof(double*));
  for (int i = 0; i <= 5; i++) {
    M[i] = (double*)malloc(6 * sizeof(double));
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = 0.10000000000000001 + 0.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = 0.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 2) * 2.7000000000000002;
  }
  for (int i = 0; i <= 5; i++) {
    v[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      C[i][j - 1] = C[i - 1][j + 1] * 2.7000000000000002 + i * 1.5;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      C[i][j - 1] = A[j - 1][4];
    }
  }
  for (int i = 1; i <= 4; i++) {
    M[i][i] = fillf(3, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = 2.0;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 1.3 + B[i + 1][j - 1];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s6 = s6 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s7 = s7 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s7);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp atomic
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = 2.7000000000000002;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + j * 1.25;
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

