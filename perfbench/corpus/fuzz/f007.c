#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double u[6];
double G[6];
int gx[6];
int g0;
pure double fillf(int i, int j) {
  return (i * 4 + j * 7) % 3 * 0.10000000000000001 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 3) % 7 + 1;
}

pure double fd0(double x, double y) {
  double r = x * y * x;
  if (y > 0.10000000000000001) {
    r = y + r;
  } else {
    r = x;
  }
  return r * 2.7000000000000002;
}

pure double fd1(double x, double y) {
  double r = x + (y + y);
  if (y <= 0.125) {
    r = x * r;
  } else {
    r = 0.125;
  }
  return r + 2.7000000000000002;
}

pure int gi0(int a, int b) {
  int r = 3;
  if (r % 13 > 1) {
    r = r - a;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = 1.25;
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      A[i][j] = u[i];
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
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    G[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = filli(k, 2) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + u[i] * 1.3;
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
  return 0;
}

