#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double u[7];
double v[7];
int p[7];
pure double fillf(int i, int j) {
  return (i * 1 + j * 1) % 11 * 0.25 + 2.7000000000000002;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 2) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = x + 0.125;
  if (x < 1.3) {
    r = 0.29999999999999999 + r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = fd0(x, x) - 1.5 * x;
  if (y > 2.7000000000000002) {
    r = x + r;
  }
  return r * 0.10000000000000001;
}

pure int gi0(int a, int b) {
  int r = a % 11 % 5;
  if (r % 5 > 0) {
    r = r * b;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = 5 % 11;
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      B[i][j] = fd1(0.25, v[i - 1]) - j * 1.5;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      B[i][j] = fillf(j, 1);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[j] = v[2] - fd0(1.5, B[i + 1][5]);
      A[i - 1][j + 1] = fillf(0, 2) + u[i - 1];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + i * 1.3;
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
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 5; i++) {
    r0 += B[i - 1][i - 1];
  }
  printf("red %.17g\n", r0);
  return 0;
}

