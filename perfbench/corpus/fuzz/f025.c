#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
double u[7];
double T[7][7];
double S[7][7];
pure double fillf(int i, int j) {
  return (i * 2 + j * 6) % 11 * 0.10000000000000001 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 5) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = y + x + (1.5 + 2.7000000000000002);
  if (x < 2.0) {
    r = y;
  }
  return r * 0.25;
}

pure int gi0(int a, int b) {
  int r = a % 13 * (5 + b);
  if (r % 3 > 2) {
    r = r % 11;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = 0.25 + 0.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j) * 1.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = 2.7000000000000002 - 0.125;
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 1; i <= 5; i++) {
    u[i - 1] = i * 2.0;
    A[i][i] = 0.29999999999999999 * 0.29999999999999999 + fillf(i + 2, 2);
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      A[i][j + 1] = fd0(0.10000000000000001, u[j + 1]);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      B[i][j] = fd0(j * 2.7000000000000002, 0.29999999999999999) * 2.7000000000000002 + B[i - 1][j + 1];
    }
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
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = 1.3 + 0.10000000000000001;
    }
  }
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.25 + u[i + 1];
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

