#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double u[5];
double v[5];
double T[5][5];
pure double fillf(int i, int j) {
  return (i * 3 + j * 7) % 13 * 1.5 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 1) % 13 + 2;
}

pure double fd0(double x, double y) {
  double r = x;
  if (y < 0.10000000000000001) {
    r = 1.5;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = y + y - fd0(0.29999999999999999, x);
  if (y >= 0.25) {
    r = 2.0 + x;
  } else {
    r = y;
  }
  return r * 0.29999999999999999;
}

pure int gi0(int a, int b) {
  int r = b;
  if (r % 7 > 0) {
    r = 2 * 5;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(5 * sizeof(double*));
  for (int i = 0; i <= 4; i++) {
    M[i] = (double*)malloc(5 * sizeof(double));
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 4; i++) {
    v[i] = 0.5 - 1.25;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = 2.0 - 1.3;
    }
  }
  for (int i = 1; i <= 3; i++) {
    A[i][3] = u[2] - M[i + 1][i + 1];
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      v[j] = M[j - 1][1];
      u[i] = fillf(i, i);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      M[i][j - 1] = fillf(j + 2, j + 1) * 2.7000000000000002 + fd0(i * 0.5, j * 0.10000000000000001);
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + fillf(i + 1, 0);
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 2.7000000000000002 + A[i + 1][j - 1];
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
  double s2 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  for (int i = 0; i <= 4; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

