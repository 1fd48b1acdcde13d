#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double u[6];
int col[6];
double w[6];
pure double fillf(int i, int j) {
  return (i * 5 + j * 3) % 7 * 0.5 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 2) % 13 + 2;
}

pure double fd0(double x, double y) {
  double r = y;
  if (x <= 0.5) {
    r = r - 2.7000000000000002;
  }
  return r * 1.5;
}

pure double fd1(double x, double y) {
  double r = (x + x) * y;
  if (y < 0.125) {
    r = y + x;
  } else {
    r = x;
  }
  return r + 0.25;
}

pure int gi0(int a, int b) {
  int r = b % 7 % 11;
  if (r % 3 < 2) {
    r = a + r;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(6 * sizeof(double*));
  for (int i = 0; i <= 5; i++) {
    M[i] = (double*)malloc(6 * sizeof(double));
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 0) * 1.25;
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      u[j] = A[i + 1][j - 1] * 0.10000000000000001 + fillf(j, 2);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      u[j - 1] = i * 0.29999999999999999;
      B[i + 1][j - 1] = B[i + 1][j - 1];
    }
  }
  for (int i = 0; i <= 5; i++) {
    w[i] = 2.0;
  }
  for (int k = 0; k <= 5; k++) {
    col[k] = (k * 6 + 3) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    for (int k = 1; k <= 4; k++) {
      w[i] = w[i] + A[i][col[k]] * 1.25;
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
    for (int j = 0; j <= 5; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += 2.0;
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

