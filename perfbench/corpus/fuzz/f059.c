#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double C[8][8];
double T[8][8];
double S[8][8];
pure double fillf(int i, int j) {
  return (i * 3 + j * 4) % 5 * 0.29999999999999999 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 2) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.5;
  if (x >= 0.10000000000000001) {
    r = 1.3;
  } else {
    r = r * y;
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
      B[i][j] = fillf(i, j) * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      C[i][j] = fillf(i, j) * 2.7000000000000002;
    }
  }
  for (int i = 1; i <= 6; i++) {
    B[i - 1][5] = B[i - 1][i] + 0.5;
    B[i - 1][4] = fillf(i, i) - C[i - 1][i - 1];
  }
  for (int i = 1; i <= 6; i++) {
    A[i][i] = i * 1.3;
    C[i][i - 1] = fd0(1.5, i * 0.10000000000000001);
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      A[i + 1][j + 1] = i * 0.10000000000000001 + B[2][j];
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 0.25 + C[i][j];
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
    for (int j = 0; j <= 7; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s3 = s3 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s3);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = fillf(i, j) * 1.5;
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + i * 0.10000000000000001;
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  return 0;
}

