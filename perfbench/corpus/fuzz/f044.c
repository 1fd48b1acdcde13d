#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double u[5];
double v[5];
int p[5];
int q[5];
double T[5][5];
pure double fillf(int i, int j) {
  return (i * 2 + j * 6) % 7 * 0.29999999999999999 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 4) % 11 + 1;
}

pure double fd0(double x, double y) {
  double r = 1.5 * x;
  if (y > 1.25) {
    r = x;
  } else {
    r = x;
  }
  return r + 0.25;
}

pure double fd1(double x, double y) {
  double r = x * x - x;
  if (x >= 1.3) {
    r = 1.5;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = (a + 6) % 11;
  if (r % 13 < 2) {
    r = 1 - a;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 2.0 * 0.5;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 0; i <= 4; i++) {
    v[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = 3 - i;
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    u[i - 1] = B[i][i] * 1.3 + 0.125;
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + v[j + 1];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 2.0 + B[i][j];
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
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 3; i++) {
    r0 = fmax(r0, fd0(0.25, i * 1.25));
  }
  printf("red %.17g\n", r0);
  return 0;
}

