#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double T[7][7];
double S[7][7];
pure double fillf(int i, int j) {
  return (i * 2 + j * 7) % 3 * 0.25 + 0.125;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 1) % 13 + 3;
}

pure double fd0(double x, double y) {
  double r = 2.7000000000000002 - y + x;
  if (y < 0.125) {
    r = x;
  }
  return r + 0.10000000000000001;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      B[i][j] = B[i + 1][j - 1] * 0.5 + i * 0.125;
      B[i][j + 1] = B[i - 1][j + 1] + fillf(j + 1, i);
    }
  }
  for (int i = 1; i <= 5; i++) {
    A[i][i - 1] = i * 2.7000000000000002 - fillf(i, i + 1);
    B[i - 1][2] = fd0(1.25, 1.3);
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 1.25 + B[i + 1][j - 1];
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
    for (int j = 0; j <= 6; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s2 = s2 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s2);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.5 + j * 0.29999999999999999;
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  return 0;
}

