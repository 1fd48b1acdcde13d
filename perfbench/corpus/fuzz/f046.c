#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double u[6];
double v[6];
pure double fillf(int i, int j) {
  return (i * 1 + j * 7) % 13 * 0.25 + 2.7000000000000002;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 4) % 7 + 1;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y >= 1.25) {
    r = r - 0.10000000000000001;
  } else {
    r = y;
  }
  return r + 2.0;
}

pure double fd1(double x, double y) {
  double r = 0.125 * (x * x);
  if (x >= 1.5) {
    r = fd0(2.0, x);
  }
  return r + 0.25;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 0.5 - 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = 1.25;
  }
  for (int i = 0; i <= 5; i++) {
    v[i] = fillf(i, 1) * 1.3;
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      u[i + 1] = j * 0.29999999999999999;
      u[j - 1] = j * 0.25 * 0.125 + i * 1.3;
    }
  }
  for (int i = 1; i <= 4; i++) {
    u[i - 1] = v[i] - 0.25;
  }
  for (int i = 1; i <= 4; i++) {
    v[i - 1] = A[i + 1][i - 1] * 2.0 + u[3];
    A[i - 1][1] = i * 0.125;
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
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += fillf(0, 3);
  }
  printf("red %.17g\n", r0);
  return 0;
}

