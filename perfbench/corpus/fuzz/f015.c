#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double u[6];
double v[6];
int p[6];
int q[6];
double T[6][6];
int g0;
pure double fillf(int i, int j) {
  return (i * 4 + j * 1) % 7 * 2.7000000000000002 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 2) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x >= 0.29999999999999999) {
    r = x - r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = x + x + 0.29999999999999999;
  if (x >= 1.25) {
    r = y;
  }
  return r + 0.5;
}

int main(void) {
  double** M = (double**)malloc(6 * sizeof(double*));
  for (int i = 0; i <= 5; i++) {
    M[i] = (double*)malloc(6 * sizeof(double));
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 0) * 0.125;
  }
  for (int i = 0; i <= 5; i++) {
    v[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j) * 2.0;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      A[i][j + 1] = v[j] * 0.29999999999999999 + A[i - 1][j + 1];
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      q[i] = p[i + 1] + filli(j + 1, i);
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + M[j + 1][i + 1];
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
      T[i][j] = T[i - 1][j] * 2.7000000000000002 + B[i + 1][j - 1];
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s5);
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
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += fd0(M[i - 1][1], i * 1.25);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 2);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

