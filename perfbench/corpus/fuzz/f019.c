#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double u[6];
double S[6][6];
double G[6];
int gx[6];
int g0;
pure double fillf(int i, int j) {
  return (i * 1 + j * 4) % 5 * 1.3 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 1) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = 0.29999999999999999;
  if (y <= 1.3) {
    r = r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = 2.0;
  if (x <= 2.7000000000000002) {
    r = fd0(0.125, y);
  }
  return r + 2.7000000000000002;
}

pure int gi0(int a, int b) {
  int r = 3 + 9 % 3;
  if (r % 7 < 2) {
    r = 9 % 7;
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
      A[i][j] = fillf(i, j) * 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1) * 0.29999999999999999;
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      M[i][j] = fillf(i, j) * 0.5;
    }
  }
  for (int i = 1; i <= 4; i++) {
    M[i + 1][4] = M[i - 1][4] * 0.29999999999999999 + fillf(i, i + 1);
    A[i][4] = fillf(i, i + 1) + i * 2.0;
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      u[j] = fd0(i * 1.25, 0.5) * 1.5 + M[3][j];
      M[i + 1][j] = fd0(i * 2.0, A[i][i - 1]) + M[i + 1][j - 1];
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + fillf(i, j);
    }
  }
  printf("acc %.17g\n", acc0);
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
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s2 = s2 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s2);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 4; i++) {
    r0 += fd0(M[i + 1][i + 1], u[4]);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp atomic
    g0 += filli(i, 3);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = 1.5 - 0.125;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.25 + 1.25;
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
    G[i] = 0.125;
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = k % 3 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + A[i + 1][i + 1] * 1.25;
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

