#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double C[8][8];
int p[8];
double G[8];
int gx[8];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 7) % 3 * 1.25 + 0.29999999999999999;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 7) % 5 + 2;
}

pure double fd0(double x, double y) {
  double r = 1.3;
  if (x <= 1.3) {
    r = x;
  } else {
    r = y;
  }
  return r + 2.7000000000000002;
}

pure double fd1(double x, double y) {
  double r = 2.7000000000000002 + y + x * y;
  if (y >= 0.10000000000000001) {
    r = y;
  } else {
    r = x;
  }
  return r;
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
    for (int j = 0; j <= 7; j++) {
      B[i][j] = 0.25 + 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      C[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = 1.5;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      A[i][j] = A[j - 1][j];
      p[i - 1] = i + j - j;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + M[i + 1][j];
    }
  }
  printf("acc %.17g\n", acc0);
  double s0 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s4 = s4 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 6; i++) {
    r0 = fmax(r0, 1.5);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 6; i++) {
#pragma omp atomic
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 7; i++) {
    G[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 7; k++) {
    gx[k] = (k * 5 + 3) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + B[i + 1][i + 1] * 1.3;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 7; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 7; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

