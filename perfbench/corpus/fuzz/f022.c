#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double u[7];
double G[7];
int gx[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 2 + j * 3) % 3 * 0.29999999999999999 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 1) % 5 + 2;
}

pure double fd0(double x, double y) {
  double r = 1.3;
  if (x >= 0.29999999999999999) {
    r = y + y;
  } else {
    r = 0.29999999999999999;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = 2.7000000000000002 - 0.5 + x;
  if (x <= 0.29999999999999999) {
    r = 0.29999999999999999 + 0.5;
  } else {
    r = 1.5;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = 0.29999999999999999;
  }
  for (int i = 1; i <= 5; i++) {
    A[i][3] = B[1][i - 1] + A[i][i];
  }
  for (int i = 1; i <= 5; i++) {
    u[i + 1] = fd0(2.0, 1.5) - 1.25;
  }
  for (int i = 1; i <= 5; i++) {
    B[i][3] = u[i - 1];
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 3);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = filli(k, 1) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + A[i - 1][i - 1] * 1.25;
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
  return 0;
}

