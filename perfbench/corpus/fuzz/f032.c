#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double C[5][5];
double u[5];
double T[5][5];
double S[5][5];
double G[5];
int gx[5];
int g0;
pure double fillf(int i, int j) {
  return (i * 3 + j * 2) % 5 * 0.29999999999999999 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 1) % 7 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (y < 2.7000000000000002) {
    r = r;
  } else {
    r = y + y;
  }
  return r * 0.10000000000000001;
}

pure double fd1(double x, double y) {
  double r = 1.25;
  if (y >= 0.10000000000000001) {
    r = x;
  } else {
    r = 0.125;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = b;
  if (r % 3 < 1) {
    r = a % 7;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      C[i][j] = fillf(i, j) * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      B[i][j - 1] = fd0(i * 0.29999999999999999, 1.3) * 1.3 + B[i][j];
      C[i + 1][j] = fillf(i, 3);
    }
  }
  for (int i = 1; i <= 3; i++) {
    B[i + 1][2] = fillf(i, i) * 2.0 + B[i - 1][1];
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      C[i][j + 1] = fd0(2.0, 1.25) + j * 0.29999999999999999;
      C[i][j] = A[i + 1][i] * 0.5 + fd0(1.5, A[j][j + 1]);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = 0.10000000000000001 + 1.5;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.10000000000000001 + B[i + 1][j - 1];
    }
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
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 3; i++) {
    r0 += fillf(i, i);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical
    g0 += filli(i, 5);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.5 + fillf(1, 0);
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
    G[i] = fillf(i, 1);
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = filli(k, 5) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + B[1][3] * 1.5;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 4; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  return 0;
}

