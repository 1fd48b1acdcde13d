#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
pure double fillf(int i, int j) {
  return (i * 6 + j * 6) % 5 * 0.125 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 6) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = y - x;
  if (x >= 0.10000000000000001) {
    r = x;
  } else {
    r = 2.7000000000000002;
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
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = 0.25 * 0.125;
    }
  }
  for (int i = 1; i <= 4; i++) {
    u[i] = fillf(i + 1, 3) * 2.7000000000000002 + fd0(B[i + 1][2], i * 2.0);
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      C[i - 1][j] = C[j][3];
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      A[i - 1][j + 1] = fillf(i, 0) * 1.25 + j * 1.5;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + B[1][j];
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
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 4; i++) {
    r0 = fmax(r0, i * 2.7000000000000002);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

