#include <stdio.h>
#include <stdlib.h>
double A[7][7];
int col[7];
double w[7];
double T[7][7];
double S[7][7];
double G[7];
int gx[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 5) % 7 * 0.29999999999999999 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 5) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y > 0.5) {
    r = y;
  } else {
    r = r;
  }
  return r + 2.0;
}

pure double fd1(double x, double y) {
  double r = fd0(x, y);
  if (y >= 0.25) {
    r = 0.125;
  }
  return r + 2.0;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      A[i][j] = fd0(2.7000000000000002, i * 2.0) * 0.10000000000000001 + j * 2.7000000000000002;
      A[i][j - 1] = A[j - 1][i];
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      A[i][j] = i * 0.125;
    }
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = fillf(i, 1) * 0.125;
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 5 + 2) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.25;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + 0.5;
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
      T[i][j] = T[i - 1][j] * 1.3 + A[i][j];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  int s1 = 0;
  for (int i = 0; i <= 6; i++) {
    s1 = s1 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s3 = s3 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s3);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 5; i++) {
    r0 = fmax(r0, 0.25);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 6);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = 0.5 * 1.5;
    }
  }
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.25 + i * 1.25;
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
    G[i] = fillf(i, 1) * 2.0;
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = (k * 1 + 4) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + A[i][i] * 0.25;
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

