#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double C[5][5];
double u[5];
double v[5];
int p[5];
int q[5];
double G[5];
int gx[5];
int g0;
pure double fillf(int i, int j) {
  return (i * 1 + j * 2) % 7 * 1.3 + 0.10000000000000001;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 3) % 7 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.3;
  if (x > 1.5) {
    r = 0.29999999999999999 + y;
  } else {
    r = 0.25;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = x + fd0(y, y);
  if (y < 2.7000000000000002) {
    r = y - y;
  } else {
    r = 0.125;
  }
  return r + 2.7000000000000002;
}

pure int gi0(int a, int b) {
  int r = a - 2;
  if (r % 13 > 0) {
    r = a % 13;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 2.0;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      C[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 0; i <= 4; i++) {
    v[i] = fillf(i, 0) * 0.5;
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = 7;
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    A[i][i + 1] = 2.0;
  }
  for (int i = 1; i <= 3; i++) {
    p[i] = filli(i, i + 2);
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
    for (int j = 0; j <= 4; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 4; i++) {
    s6 = s6 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s6);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp atomic
    g0 += filli(i, 1);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    G[i] = 0.25;
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = k % 2 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + C[i][3] * 1.5;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 4; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  return 0;
}

