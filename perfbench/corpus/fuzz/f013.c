#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double C[8][8];
int p[8];
double T[8][8];
int g0;
pure double fillf(int i, int j) {
  return (i * 3 + j * 7) % 5 * 2.7000000000000002 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 3) % 5 + 2;
}

pure double fd0(double x, double y) {
  double r = y + (x - y);
  if (y > 1.5) {
    r = x * 0.10000000000000001;
  } else {
    r = 2.0 - y;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = 0.25;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      B[i][j] = 1.5;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      C[i][j] = 2.7000000000000002 + 0.5;
    }
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      A[i + 1][j] = B[3][6];
      C[i][j + 1] = C[i - 1][j + 1];
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = 2.0;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 1.3 + B[i + 1][j - 1];
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
  int s3 = 0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 6; i++) {
    r0 = fmax(r0, fd0(i * 0.10000000000000001, B[i - 1][4]));
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 6; i++) {
#pragma omp atomic
    g0 += filli(i, 2);
  }
  printf("crit %d\n", g0);
  return 0;
}

