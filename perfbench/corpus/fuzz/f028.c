#include <stdio.h>
#include <stdlib.h>
double A[8][8];
int p[8];
pure double fillf(int i, int j) {
  return (i * 3 + j * 7) % 3 * 0.25 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 5) % 13 + 3;
}

pure double fd0(double x, double y) {
  double r = y + x;
  if (x < 0.29999999999999999) {
    r = 0.125 * y;
  } else {
    r = 0.25;
  }
  return r * 0.25;
}

int main(void) {
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = 0.125 - 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 1; i <= 6; i++) {
    A[i - 1][5] = i * 0.10000000000000001;
    A[i][5] = 1.3;
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + fillf(j, 1);
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
  int s1 = 0;
  for (int i = 0; i <= 7; i++) {
    s1 = s1 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s1);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 6; i++) {
    r0 += A[4][2];
  }
  printf("red %.17g\n", r0);
  return 0;
}

