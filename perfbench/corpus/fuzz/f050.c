#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
int p[7];
double T[7][7];
int g0;
pure double fillf(int i, int j) {
  return (i * 6 + j * 6) % 13 * 0.25 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 5) % 11 + 2;
}

pure double fd0(double x, double y) {
  double r = x + y;
  if (x > 1.5) {
    r = 1.5;
  }
  return r * 1.3;
}

pure int gi0(int a, int b) {
  int r = 9;
  if (r % 11 > 1) {
    r = a + b;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j) * 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = 1.3;
    }
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      C[i][j] = B[j - 1][i + 1] + B[j][i + 1];
    }
  }
  for (int i = 1; i <= 5; i++) {
    B[i][i + 1] = fd0(i * 1.3, 0.25) * 2.0 + i * 0.25;
    A[i - 1][4] = i * 0.29999999999999999 * 0.29999999999999999 + fd0(1.25, C[i][i + 1]);
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      C[i][j] = fillf(j, j + 1);
      C[i][j] = fillf(j + 1, j) - C[j + 1][i + 1];
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = 1.3 - 0.10000000000000001;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 0.29999999999999999 + B[i + 1][j - 1];
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
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp atomic
    g0 += filli(i, 4);
  }
  printf("crit %d\n", g0);
  return 0;
}

