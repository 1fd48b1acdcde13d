#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double u[7];
double v[7];
int p[7];
double S[7][7];
double G[7];
int gx[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 2 + j * 6) % 5 * 0.25 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 7) % 3 + 1;
}

pure double fd0(double x, double y) {
  double r = y * x;
  if (y <= 1.25) {
    r = x;
  }
  return r + 0.25;
}

pure double fd1(double x, double y) {
  double r = x + x;
  if (x > 2.0) {
    r = 0.125 - y;
  } else {
    r = x;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = 1.3;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = 4 + i;
  }
  for (int i = 1; i <= 5; i++) {
    A[i][3] = B[4][i + 1] * 2.0 + fillf(1, 1);
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + 1.5;
    }
  }
  printf("acc %.17g\n", acc0);
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 5; i++) {
    r0 = fmax(r0, v[i]);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 1.3 + 1.3;
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 2) * 1.25;
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = (k * 1 + 0) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + u[4] * 0.5;
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

