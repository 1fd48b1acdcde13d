#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double u[7];
int p[7];
int q[7];
int col[7];
double w[7];
double T[7][7];
double G[7];
int gx[7];
pure double fillf(int i, int j) {
  return (i * 5 + j * 7) % 3 * 0.29999999999999999 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 5) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x >= 0.125) {
    r = y;
  }
  return r + 0.125;
}

pure int gi0(int a, int b) {
  int r = b % 11 % 5;
  if (r % 11 < 1) {
    r = 3 + b;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 1) * 1.5;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 6; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      q[i] = q[5];
    }
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 1 + 4) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.29999999999999999;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + fillf(0, i);
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 0.5 + A[i][j];
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
  int s2 = 0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 1);
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = k % 4 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + A[i][3] * 1.3;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 6; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  return 0;
}

