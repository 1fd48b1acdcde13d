#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double S[8][8];
pure double fillf(int i, int j) {
  return (i * 6 + j * 4) % 11 * 0.29999999999999999 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 4) % 13 + 4;
}

pure double fd0(double x, double y) {
  double r = x + (x + x);
  if (x >= 1.25) {
    r = 0.25 + 0.5;
  } else {
    r = 1.25;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(8 * sizeof(double*));
  for (int i = 0; i <= 7; i++) {
    M[i] = (double*)malloc(8 * sizeof(double));
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 6; i++) {
    M[i][2] = i * 1.3 * 0.5 + A[5][2];
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
      s1 = s1 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s1);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = 0.25;
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.125 + 0.5;
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
    free(M[i]);
  }
  free(M);
  return 0;
}

