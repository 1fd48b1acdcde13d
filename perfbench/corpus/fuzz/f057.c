#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double u[5];
int p[5];
int q[5];
int col[5];
double w[5];
double T[5][5];
pure double fillf(int i, int j) {
  return (i * 3 + j * 6) % 5 * 0.125 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 2) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y >= 2.7000000000000002) {
    r = 2.7000000000000002 + x;
  }
  return r * 0.5;
}

pure double fd1(double x, double y) {
  double r = y;
  if (y >= 0.25) {
    r = r;
  }
  return r + 1.3;
}

int main(void) {
  double** M = (double**)malloc(5 * sizeof(double*));
  for (int i = 0; i <= 4; i++) {
    M[i] = (double*)malloc(5 * sizeof(double));
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 2) * 1.5;
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = i + i;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      u[i] = fd1(j * 0.10000000000000001, j * 2.7000000000000002);
      u[j] = fd1(1.5, M[j - 1][i + 1]) - fd1(i * 2.0, 0.125);
    }
  }
  for (int i = 0; i <= 4; i++) {
    w[i] = fillf(i, 0) * 0.29999999999999999;
  }
  for (int k = 0; k <= 4; k++) {
    col[k] = (k * 4 + 7) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    for (int k = 1; k <= 3; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.10000000000000001 + A[i][j];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  int s2 = 0;
  for (int i = 0; i <= 4; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s4 = s4 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s6 = s6 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s7 = s7 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s7);
  for (int i = 0; i <= 4; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

