#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double u[8];
double v[8];
double T[8][8];
double S[8][8];
double G[8];
int gx[8];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 7) % 5 * 1.5 + 2.7000000000000002;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 5) % 5 + 2;
}

pure double fd0(double x, double y) {
  double r = 1.5;
  if (y < 2.7000000000000002) {
    r = 2.7000000000000002;
  } else {
    r = y - 1.25;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = y - fd0(2.7000000000000002, y);
  if (x < 0.29999999999999999) {
    r = x;
  } else {
    r = 0.125 + 0.5;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = 0.125;
  }
  for (int i = 0; i <= 7; i++) {
    v[i] = fillf(i, 0) * 0.5;
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      A[i][j] = i * 0.125;
      v[j + 1] = fd0(u[i - 1], j * 0.5) - fillf(3, i + 1);
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = 1.3 - 0.10000000000000001;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 0.125 + B[i][j];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  double s1 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 6; i++) {
#pragma omp atomic
    g0 += filli(i, 7);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = fillf(i, j) * 1.3;
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 2.7000000000000002 + B[4][j + 1];
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 7; i++) {
    G[i] = fillf(i, 1);
  }
  for (int k = 0; k <= 7; k++) {
    gx[k] = k % 5 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + B[4][i] * 2.7000000000000002;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 7; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  return 0;
}

