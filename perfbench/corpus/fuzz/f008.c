#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
int p[6];
double T[6][6];
pure double fillf(int i, int j) {
  return (i * 7 + j * 2) % 11 * 2.7000000000000002 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 4) % 5 + 2;
}

pure double fd0(double x, double y) {
  double r = x * x;
  if (y < 1.25) {
    r = y;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = fd0(x, x) + 0.25;
  if (x >= 0.5) {
    r = x;
  } else {
    r = 0.10000000000000001;
  }
  return r * 0.5;
}

pure int gi0(int a, int b) {
  int r = b - b + a;
  if (r % 7 > 1) {
    r = r + 9;
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
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = 0.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      B[i - 1][j] = B[i - 1][j + 1] - fd1(j * 1.5, i * 0.29999999999999999);
      A[i][j + 1] = fillf(1, j) - A[i - 1][j + 1];
    }
  }
  for (int i = 1; i <= 4; i++) {
    M[i + 1][3] = fd0(2.0, A[i + 1][i - 1]);
    B[i][i] = 2.7000000000000002 * 2.0 + 2.7000000000000002;
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      B[i][j] = j * 0.5 * 2.7000000000000002 + A[3][j - 1];
      A[i - 1][j - 1] = fd1(j * 1.5, 1.3) * 0.10000000000000001 + B[j - 1][i];
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 0.29999999999999999 + B[i][j];
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
  int s2 = 0;
  for (int i = 0; i <= 5; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 4; i++) {
    r0 = fmax(r0, A[3][i + 1]);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

