#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double u[7];
double v[7];
double T[7][7];
pure double fillf(int i, int j) {
  return (i * 3 + j * 7) % 3 * 0.25 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 4) % 11 + 2;
}

pure double fd0(double x, double y) {
  double r = 1.25 + (x + 0.29999999999999999);
  if (x <= 2.0) {
    r = r;
  } else {
    r = r;
  }
  return r + 1.5;
}

int main(void) {
  double** M = (double**)malloc(7 * sizeof(double*));
  for (int i = 0; i <= 6; i++) {
    M[i] = (double*)malloc(7 * sizeof(double));
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = 1.25;
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = 0.5 + 0.5;
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      M[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      A[i - 1][j + 1] = A[i - 1][j + 1] * 0.10000000000000001 + fd0(0.5, i * 0.25);
      v[i - 1] = i * 2.0;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[i + 1] = fd0(A[1][5], 0.125);
      v[j] = fillf(i + 2, i);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      v[j - 1] = 1.3;
      M[i + 1][j] = M[i - 1][i - 1] * 2.7000000000000002 + u[j];
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = 0.125;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 2.7000000000000002 + A[i + 1][j - 1];
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
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  for (int i = 0; i <= 6; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

