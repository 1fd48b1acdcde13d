#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double S[5][5];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 1) % 5 * 0.5 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 7) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = (x - 0.10000000000000001) * x;
  if (y > 0.125) {
    r = 0.5;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(5 * sizeof(double*));
  for (int i = 0; i <= 4; i++) {
    M[i] = (double*)malloc(5 * sizeof(double));
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = fillf(i, j) * 0.5;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    M[i - 1][3] = M[i - 1][i] * 2.7000000000000002 + M[3][3];
  }
  for (int i = 1; i <= 3; i++) {
    M[i][3] = A[i + 1][i - 1];
    M[i][i] = A[i + 1][i - 1];
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
      s1 = s1 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s1);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical
    g0 += filli(i, 3);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(static,2)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 1.25 + M[i + 1][3];
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 4; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

