#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double u[8];
double v[8];
int p[8];
int q[8];
int col[8];
double w[8];
double T[8][8];
double S[8][8];
pure double fillf(int i, int j) {
  return (i * 6 + j * 5) % 13 * 1.5 + 0.125;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 4) % 5 + 1;
}

pure double fd0(double x, double y) {
  double r = x + y + y;
  if (x >= 0.5) {
    r = x + 1.3;
  } else {
    r = 0.25 + y;
  }
  return r * 2.0;
}

pure double fd1(double x, double y) {
  double r = fd0(x, y);
  if (x > 0.29999999999999999) {
    r = 2.7000000000000002;
  } else {
    r = 0.10000000000000001;
  }
  return r + 0.5;
}

int main(void) {
  double** M = (double**)malloc(8 * sizeof(double*));
  for (int i = 0; i <= 7; i++) {
    M[i] = (double*)malloc(8 * sizeof(double));
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = fillf(i, 1) * 0.25;
  }
  for (int i = 0; i <= 7; i++) {
    v[i] = fillf(i, 2) * 0.29999999999999999;
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    q[i] = i;
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = fillf(i, j) * 1.3;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      u[j] = A[i - 1][j + 1];
      A[i - 1][j] = A[i + 1][j - 1] * 0.125 + u[i];
    }
  }
  for (int i = 0; i <= 7; i++) {
    w[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 7; k++) {
    col[k] = (k * 4 + 7) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    for (int k = 1; k <= 6; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 1.5 + A[i + 1][j - 1];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 7; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 7; i++) {
    s6 = s6 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s7 = s7 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s7);
  double s8 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s8 = s8 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s8);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 6; i++) {
    r0 = fmax(r0, fillf(1, i));
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.10000000000000001 + u[1];
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 7; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

