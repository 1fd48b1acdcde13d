#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
int p[6];
int q[6];
int col[6];
double w[6];
double T[6][6];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 7) % 11 * 0.10000000000000001 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 2) % 3 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.25 - 1.5 + x;
  if (y <= 1.5) {
    r = 1.5;
  }
  return r * 2.0;
}

pure int gi0(int a, int b) {
  int r = 6 - 3 + b;
  if (r % 3 < 0) {
    r = a - 6;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = fillf(i, j) * 0.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      B[i + 1][j] = fd0(0.10000000000000001, j * 0.10000000000000001) - B[j - 1][j];
      A[i][j] = fd0(j * 2.7000000000000002, 1.3) * 0.25 + A[i + 1][j - 1];
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      C[i][j] = fd0(B[3][i - 1], B[i + 1][j - 1]) * 2.7000000000000002 + B[i + 1][i];
      C[i][j - 1] = C[i + 1][j - 1] - C[2][2];
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      C[i][j] = fillf(j, 3) * 0.25 + fd0(j * 2.7000000000000002, j * 0.125);
      A[i + 1][j] = fillf(j, j + 1);
    }
  }
  for (int i = 0; i <= 5; i++) {
    w[i] = 2.0;
  }
  for (int k = 0; k <= 5; k++) {
    col[k] = (k * 3 + 4) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    for (int k = 1; k <= 4; k++) {
      w[i] = w[i] + A[i][col[k]] * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = fillf(i, j) * 2.7000000000000002;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 1.3 + A[i + 1][j - 1];
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
  int s5 = 0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s6 = s6 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s7 = s7 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s7);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 4; i++) {
    r0 = fmax(r0, 0.25);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 6);
  }
  printf("crit %d\n", g0);
  return 0;
}

