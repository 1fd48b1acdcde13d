#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double u[6];
int p[6];
int q[6];
int col[6];
double w[6];
double S[6][6];
double G[6];
int gx[6];
pure double fillf(int i, int j) {
  return (i * 6 + j * 3) % 13 * 2.0 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 6) % 7 + 2;
}

pure double fd0(double x, double y) {
  double r = 0.25 + (x - 2.0);
  if (x >= 2.7000000000000002) {
    r = x * r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = fd0(x, 0.125);
  if (x <= 0.25) {
    r = 1.5 + 1.3;
  }
  return r * 1.5;
}

pure int gi0(int a, int b) {
  int r = b * b * (3 % 11);
  if (r % 7 > 0) {
    r = 4 + 1;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 2.7000000000000002;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1) * 0.29999999999999999;
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = i;
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      p[j] = i % 11;
      p[j] = 4 * 1;
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      q[i] = 3 * i + (filli(2, j) + p[i]);
    }
  }
  for (int i = 0; i <= 5; i++) {
    w[i] = fillf(i, 1) * 2.7000000000000002;
  }
  for (int k = 0; k <= 5; k++) {
    col[k] = (k * 2 + 4) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    for (int k = 1; k <= 4; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.25;
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
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  int s2 = 0;
  for (int i = 0; i <= 5; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += fd0(u[i], i * 0.10000000000000001);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + fd1(i * 0.29999999999999999, 2.0);
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 5; i++) {
    G[i] = 1.3;
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = filli(k, 4) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + u[i] * 0.29999999999999999;
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
  return 0;
}

