#include <stdio.h>
#include <stdlib.h>
double A[6][6];
int p[6];
double G[6];
int gx[6];
pure double fillf(int i, int j) {
  return (i * 6 + j * 7) % 7 * 0.5 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 3) % 5 + 3;
}

pure double fd0(double x, double y) {
  double r = x * (y * 1.25);
  if (y < 2.7000000000000002) {
    r = r;
  } else {
    r = y + 2.7000000000000002;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = x * (y - x);
  if (y < 0.125) {
    r = 0.5 - x;
  }
  return r + 0.10000000000000001;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = 3 * 3;
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      p[i - 1] = i % 13;
      A[i][j - 1] = fd0(j * 0.10000000000000001, i * 0.29999999999999999) * 0.125 + A[1][4];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + i * 0.10000000000000001;
    }
  }
  printf("acc %.17g\n", acc0);
  double s0 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  int s1 = 0;
  for (int i = 0; i <= 5; i++) {
    s1 = s1 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s1);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += i * 0.10000000000000001;
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    G[i] = fillf(i, 1) * 0.25;
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = k % 3 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + A[i - 1][i + 1] * 2.0;
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

