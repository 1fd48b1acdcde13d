#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double u[6];
int col[6];
double w[6];
double S[6][6];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 2) % 13 * 0.29999999999999999 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 7) % 3 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.25;
  if (x >= 1.25) {
    r = r;
  }
  return r * 0.5;
}

pure double fd1(double x, double y) {
  double r = fd0(2.7000000000000002, y);
  if (y <= 2.0) {
    r = r * y;
  } else {
    r = y;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = 2.0 + 1.25;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 2);
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      B[i][j] = B[i + 1][j - 1] - A[i][i - 1];
    }
  }
  for (int i = 0; i <= 5; i++) {
    w[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 5; k++) {
    col[k] = (k * 7 + 3) % 4 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    for (int k = 1; k <= 4; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.125;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + A[j - 1][i - 1];
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
    for (int j = 0; j <= 5; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 4; i++) {
    r0 = fmax(r0, i * 2.7000000000000002);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 6);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = fillf(i, j) * 0.10000000000000001;
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.5 + fillf(2, i);
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  return 0;
}

