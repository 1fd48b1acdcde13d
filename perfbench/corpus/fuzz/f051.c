#include <stdio.h>
#include <stdlib.h>
double A[7][7];
int p[7];
double G[7];
int gx[7];
pure double fillf(int i, int j) {
  return (i * 7 + j * 1) % 13 * 0.25 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 1) % 13 + 2;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x <= 1.3) {
    r = r;
  } else {
    r = r;
  }
  return r * 1.5;
}

pure double fd1(double x, double y) {
  double r = fd0(1.3, 1.5);
  if (y < 0.29999999999999999) {
    r = y;
  } else {
    r = r;
  }
  return r * 2.7000000000000002;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      p[i] = i;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + A[i - 1][i + 1];
    }
  }
  printf("acc %.17g\n", acc0);
  double s0 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  int s1 = 0;
  for (int i = 0; i <= 6; i++) {
    s1 = s1 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s1);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 5; i++) {
    r0 += fillf(i, 1);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = (k * 3 + 0) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + A[1][i] * 1.5;
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

