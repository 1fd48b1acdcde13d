#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double u[5];
double v[5];
int p[5];
int q[5];
double T[5][5];
double G[5];
int gx[5];
int g0;
pure double fillf(int i, int j) {
  return (i * 1 + j * 2) % 3 * 1.3 + 0.29999999999999999;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 7) % 7 + 2;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y > 0.10000000000000001) {
    r = x;
  } else {
    r = r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = 2.7000000000000002;
  if (x < 1.5) {
    r = x + 0.10000000000000001;
  }
  return r + 2.0;
}

pure int gi0(int a, int b) {
  int r = a;
  if (r % 3 < 1) {
    r = r + 9;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = 0.10000000000000001 * 1.25;
  }
  for (int i = 0; i <= 4; i++) {
    v[i] = fillf(i, 2) * 0.10000000000000001;
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = i - 2;
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = i % 7;
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      q[j] = filli(0, i + 2) - (filli(1, j + 2) + p[j - 1]);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      p[i - 1] = i * i - filli(1, j + 1);
      q[j] = i + q[i];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + u[i];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = 0.10000000000000001 * 2.7000000000000002;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 1.5 + A[i][j];
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
  int s3 = 0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s5 = s5 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s5);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    G[i] = fillf(i, 2) * 0.10000000000000001;
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = k % 2 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + u[3] * 2.7000000000000002;
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

