#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
int p[6];
int q[6];
double G[6];
int gx[6];
pure double fillf(int i, int j) {
  return (i * 5 + j * 4) % 13 * 2.0 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 3) % 11 + 4;
}

pure double fd0(double x, double y) {
  double r = y;
  if (x > 2.7000000000000002) {
    r = r + y;
  } else {
    r = y;
  }
  return r + 2.0;
}

pure double fd1(double x, double y) {
  double r = y + x + (y - x);
  if (y <= 0.5) {
    r = r;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = 7 % 5 % 3;
  if (r % 11 > 2) {
    r = b;
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
      B[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = 0.10000000000000001 * 0.125;
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = 3 + i;
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      p[i - 1] = filli(1, j + 1);
    }
  }
  for (int i = 1; i <= 4; i++) {
    A[i + 1][i] = 0.5 - fd1(C[i - 1][i], i * 0.125);
    M[i][i + 1] = fillf(0, i) * 0.25 + B[i][i + 1];
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      A[i][j] = fillf(i + 2, j + 2) - fd0(C[i][j + 1], 1.3);
      A[i][j] = fillf(i + 2, 2) + j * 1.5;
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
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s6 = s6 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s6);
  for (int i = 0; i <= 5; i++) {
    G[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = (k * 1 + 2) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + B[i + 1][i + 1] * 0.10000000000000001;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 5; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 5; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

