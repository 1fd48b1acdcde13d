#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
double u[7];
double v[7];
int p[7];
double G[7];
int gx[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 2) % 5 * 0.29999999999999999 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 2) % 11 + 4;
}

pure double fd0(double x, double y) {
  double r = x + (0.29999999999999999 + 1.25);
  if (y < 1.25) {
    r = y;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = 0.10000000000000001 + y * x;
  if (x <= 0.5) {
    r = r * x;
  } else {
    r = 2.7000000000000002;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(7 * sizeof(double*));
  for (int i = 0; i <= 6; i++) {
    M[i] = (double*)malloc(7 * sizeof(double));
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = 0.125 + 1.25;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 2) * 0.10000000000000001;
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = 0.29999999999999999;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      M[i][j] = 2.0;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 5; i++) {
    M[i][i] = i * 1.25 * 2.0 + fillf(i + 2, 3);
  }
  for (int i = 1; i <= 5; i++) {
    C[i][i + 1] = fillf(i + 2, 3) + 0.10000000000000001;
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      A[i + 1][j] = fd0(1.5, i * 2.7000000000000002) - B[i][j];
      u[j] = B[i - 1][j - 1] - fd0(C[2][3], i * 2.0);
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 6; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s6 = s6 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s6);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = (k * 1 + 4) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + C[i + 1][i + 1] * 0.5;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 6; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 6; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

