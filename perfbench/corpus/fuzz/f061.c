#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double C[5][5];
double u[5];
int col[5];
double w[5];
double T[5][5];
double S[5][5];
double G[5];
int gx[5];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 4) % 11 * 0.10000000000000001 + 2.0;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 3) % 3 + 3;
}

pure double fd0(double x, double y) {
  double r = 2.0;
  if (y <= 0.10000000000000001) {
    r = 0.25 + r;
  } else {
    r = r + 0.125;
  }
  return r + 0.29999999999999999;
}

pure double fd1(double x, double y) {
  double r = 1.5 + y - 2.7000000000000002;
  if (x > 0.10000000000000001) {
    r = 0.10000000000000001;
  } else {
    r = y;
  }
  return r + 0.29999999999999999;
}

pure int gi0(int a, int b) {
  int r = (2 - b) * (b + a);
  if (r % 11 < 1) {
    r = a;
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
      A[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      C[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = 2.0 + 1.25;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      u[j + 1] = fillf(i, j + 1);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      u[i] = i * 0.125 * 0.125 + B[i + 1][1];
      A[i][j - 1] = fillf(2, i + 1) - A[i + 1][j - 1];
    }
  }
  for (int i = 0; i <= 4; i++) {
    w[i] = fillf(i, 0) * 2.7000000000000002;
  }
  for (int k = 0; k <= 4; k++) {
    col[k] = (k * 1 + 5) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    for (int k = 1; k <= 3; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.10000000000000001 + C[i][j];
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
      s4 = s4 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s6 = s6 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s7 = s7 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s7);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 3; i++) {
    r0 = fmax(r0, 0.29999999999999999);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical(fuzz_lock)
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
      S[i][j] = S[i][j] * 0.125 + fillf(i + 2, i + 2);
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
    G[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = k % 2 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + B[i][i] * 1.25;
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
  for (int i = 0; i <= 4; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

