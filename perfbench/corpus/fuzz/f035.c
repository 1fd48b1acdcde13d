#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
double u[7];
double v[7];
int p[7];
int col[7];
double w[7];
double T[7][7];
int g0;
pure double fillf(int i, int j) {
  return (i * 1 + j * 1) % 11 * 2.7000000000000002 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 1) % 13 + 4;
}

pure double fd0(double x, double y) {
  double r = 2.7000000000000002 + y * x;
  if (y >= 1.3) {
    r = 1.3;
  }
  return r * 0.29999999999999999;
}

pure double fd1(double x, double y) {
  double r = 0.125;
  if (x < 1.25) {
    r = y + y;
  } else {
    r = x;
  }
  return r * 2.7000000000000002;
}

pure int gi0(int a, int b) {
  int r = b + a - (7 - a);
  if (r % 13 < 1) {
    r = r - b;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = 2.0 + 1.25;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 1) * 0.125;
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = fillf(i, 1) * 2.7000000000000002;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      v[i + 1] = j * 0.125 * 1.5 + C[2][1];
    }
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = 0.25;
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 5 + 6) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.125;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 1.3 + C[i][j];
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
    for (int j = 0; j <= 6; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 6; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 6; i++) {
    s6 = s6 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s7 = s7 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s7);
  double s8 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s8 = s8 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s8);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 5; i++) {
    r0 = fmax(r0, i * 0.29999999999999999);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  return 0;
}

