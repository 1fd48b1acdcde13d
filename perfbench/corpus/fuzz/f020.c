#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double u[8];
int p[8];
int col[8];
double w[8];
double G[8];
int gx[8];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 5) % 13 * 2.0 + 0.29999999999999999;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 1) % 7 + 4;
}

pure double fd0(double x, double y) {
  double r = y - 0.10000000000000001;
  if (x > 0.5) {
    r = 0.29999999999999999 + y;
  } else {
    r = y;
  }
  return r + 0.125;
}

pure double fd1(double x, double y) {
  double r = y + x + (1.25 - y);
  if (x < 0.29999999999999999) {
    r = x;
  } else {
    r = r + x;
  }
  return r * 0.29999999999999999;
}

pure int gi0(int a, int b) {
  int r = b * 6 + a * a;
  if (r % 5 > 2) {
    r = 8 - 3;
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
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = i % 13;
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 6; i++) {
    M[i][5] = fd0(i * 1.3, i * 0.125) + 2.0;
    A[i + 1][i - 1] = fillf(i + 1, i) * 0.5 + A[2][i - 1];
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      u[j] = j * 0.10000000000000001 * 2.0 + B[2][j];
    }
  }
  for (int i = 0; i <= 7; i++) {
    w[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 7; k++) {
    col[k] = (k * 5 + 6) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    for (int k = 1; k <= 6; k++) {
      w[i] = w[i] + A[i][col[k]] * 2.7000000000000002;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + A[i][i + 1];
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
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
  int s5 = 0;
  for (int i = 0; i <= 7; i++) {
    s5 = s5 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s6 = s6 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s6);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 6; i++) {
    r0 = fmax(r0, B[i + 1][i - 1]);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 6; i++) {
#pragma omp critical
    g0 += filli(i, 1);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 7; i++) {
    G[i] = 1.5;
  }
  for (int k = 0; k <= 7; k++) {
    gx[k] = (k * 1 + 1) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + B[i - 1][i - 1] * 1.5;
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

