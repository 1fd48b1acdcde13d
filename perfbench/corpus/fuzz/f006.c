#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double u[5];
int col[5];
double w[5];
double T[5][5];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 5) % 11 * 0.10000000000000001 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 6) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (y <= 0.29999999999999999) {
    r = x;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = 1.3;
  if (x < 0.29999999999999999) {
    r = x - y;
  }
  return r + 2.0;
}

int main(void) {
  double** M = (double**)malloc(5 * sizeof(double*));
  for (int i = 0; i <= 4; i++) {
    M[i] = (double*)malloc(5 * sizeof(double));
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 0.5 + 2.0;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = 0.125 - 0.10000000000000001;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      u[j] = B[2][j - 1];
      u[j] = fd0(B[j - 1][3], j * 0.29999999999999999) - 0.125;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      M[i][j] = i * 1.3 * 1.5 + fillf(j + 1, 1);
      u[i - 1] = fillf(j, 0) * 2.0 + B[i + 1][j + 1];
    }
  }
  for (int i = 0; i <= 4; i++) {
    w[i] = 0.29999999999999999;
  }
  for (int k = 0; k <= 4; k++) {
    col[k] = (k * 5 + 1) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    for (int k = 1; k <= 3; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.25;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + A[2][i + 1];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = 0.125 - 0.10000000000000001;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.29999999999999999 + B[i + 1][j - 1];
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
    for (int j = 0; j <= 4; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

