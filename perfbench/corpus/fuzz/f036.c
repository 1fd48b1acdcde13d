#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
double u[7];
int p[7];
int q[7];
int col[7];
double w[7];
pure double fillf(int i, int j) {
  return (i * 6 + j * 7) % 3 * 2.7000000000000002 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 1) % 5 + 3;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y < 0.10000000000000001) {
    r = 2.0 + y;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = y;
  if (y > 0.25) {
    r = 0.125 * 0.25;
  }
  return r * 1.3;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = 0.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 0) * 0.10000000000000001;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = i - i;
  }
  for (int i = 0; i <= 6; i++) {
    q[i] = i - 3;
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[j + 1] = C[4][j - 1];
      B[i][j] = j * 1.25;
    }
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = 0.125;
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 1 + 6) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 1.5;
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
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 6; i++) {
    s5 = s5 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s5);
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
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 5; i++) {
    r0 += u[2];
  }
  printf("red %.17g\n", r0);
  return 0;
}

