#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double u[8];
double v[8];
int p[8];
int q[8];
pure double fillf(int i, int j) {
  return (i * 1 + j * 6) % 13 * 1.3 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 7) % 7 + 1;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y <= 0.5) {
    r = y;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = 0.29999999999999999 * 1.25;
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 0; i <= 7; i++) {
    v[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    q[i] = i;
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      A[i][j - 1] = A[6][i] * 0.29999999999999999 + fillf(2, i + 2);
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + 1.3;
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
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 7; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 6; i++) {
    r0 += A[i - 1][i - 1];
  }
  printf("red %.17g\n", r0);
  return 0;
}

