#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
int p[7];
int q[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 3 + j * 6) % 11 * 0.29999999999999999 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 6) % 11 + 4;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y > 0.125) {
    r = r;
  }
  return r + 0.25;
}

pure int gi0(int a, int b) {
  int r = 4 * 4 + 9;
  if (r % 13 > 2) {
    r = b * r;
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
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = i;
  }
  for (int i = 0; i <= 6; i++) {
    q[i] = i % 11;
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 5; i++) {
    p[i] = i;
    q[i] = q[5] + 6 % 5;
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      q[j] = j * 8;
      B[i][j] = B[i][j + 1];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + i * 0.25;
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
  int s2 = 0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s3);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  return 0;
}

