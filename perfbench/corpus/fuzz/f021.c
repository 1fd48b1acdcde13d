#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
double v[6];
double T[6][6];
double G[6];
int gx[6];
int g0;
pure double fillf(int i, int j) {
  return (i * 4 + j * 6) % 13 * 2.0 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 3) % 5 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x > 1.5) {
    r = y;
  }
  return r + 0.25;
}

pure int gi0(int a, int b) {
  int r = 2 * 5 + 6 % 3;
  if (r % 7 > 1) {
    r = r + b;
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
      A[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = 0.29999999999999999 - 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 0) * 0.25;
  }
  for (int i = 0; i <= 5; i++) {
    v[i] = fillf(i, 0);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = 2.0;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      C[i][j + 1] = B[j + 1][j - 1] * 2.7000000000000002 + C[i][i];
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      A[i - 1][j - 1] = fillf(j, i + 1) * 1.5 + A[i - 1][j + 1];
      M[i - 1][j + 1] = j * 2.7000000000000002 * 1.5 + i * 2.7000000000000002;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + C[i + 1][2];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 1.5 + C[i][j];
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
  double s5 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    G[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = k % 3 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + B[i][i] * 0.10000000000000001;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 5; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

