#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
pure double fillf(int i, int j) {
  return (i * 5 + j * 5) % 5 * 0.5 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 1) % 13 + 2;
}

pure double fd0(double x, double y) {
  double r = y;
  if (x <= 0.125) {
    r = y + r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = y * 1.5 + x;
  if (x <= 0.5) {
    r = 0.125;
  } else {
    r = 1.3;
  }
  return r * 0.25;
}

pure int gi0(int a, int b) {
  int r = (b - 1) * (a + 8);
  if (r % 5 < 0) {
    r = b % 13;
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
      A[i][j] = 2.0 + 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1) * 0.29999999999999999;
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = 0.25 * 0.5;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      C[i][j + 1] = j * 0.29999999999999999;
      B[i][j] = fd0(2.0, 0.125) * 0.29999999999999999 + i * 0.5;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      A[i - 1][j + 1] = fillf(2, 1) * 2.0 + A[i + 1][j - 1];
      C[i + 1][j] = fillf(1, 3) - C[i - 1][j + 1];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + A[j - 1][j + 1];
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
  double s1 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s4 = s4 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s4);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

