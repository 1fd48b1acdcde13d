#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double u[6];
int p[6];
int q[6];
int col[6];
double w[6];
double T[6][6];
pure double fillf(int i, int j) {
  return (i * 5 + j * 1) % 5 * 2.7000000000000002 + 0.29999999999999999;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 2) % 13 + 4;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x <= 2.0) {
    r = 0.10000000000000001;
  }
  return r * 1.3;
}

pure double fd1(double x, double y) {
  double r = x * 2.0;
  if (y < 0.125) {
    r = 2.0 * x;
  }
  return r * 2.0;
}

int main(void) {
  double** M = (double**)malloc(6 * sizeof(double*));
  for (int i = 0; i <= 5; i++) {
    M[i] = (double*)malloc(6 * sizeof(double));
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = 0.25;
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = 2.7000000000000002 + 2.0;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    u[i - 1] = fd1(M[i + 1][i], i * 1.5) * 1.25 + A[i + 1][i + 1];
    u[i] = fd1(A[i - 1][1], i * 2.7000000000000002) * 1.5 + fd0(i * 0.125, M[1][i - 1]);
  }
  for (int i = 1; i <= 4; i++) {
    p[i + 1] = p[i - 1];
    q[i] = i * i + (i - 3);
  }
  for (int i = 1; i <= 4; i++) {
    q[i] = q[i + 1] - filli(i + 1, i + 2);
    A[i - 1][2] = fd0(2.7000000000000002, i * 1.3) * 0.25 + M[1][i + 1];
  }
  for (int i = 0; i <= 5; i++) {
    w[i] = fillf(i, 0) * 0.5;
  }
  for (int k = 0; k <= 5; k++) {
    col[k] = (k * 5 + 6) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    for (int k = 1; k <= 4; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.125;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + B[1][j - 1];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 0.10000000000000001 + B[i + 1][j - 1];
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
  int s3 = 0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 5; i++) {
    s6 = s6 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s7 = s7 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s7);
  double s8 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s8 = s8 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s8);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += 0.29999999999999999;
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

