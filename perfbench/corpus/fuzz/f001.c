#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double u[5];
int p[5];
int q[5];
int col[5];
double w[5];
double S[5][5];
int g0;
pure double fillf(int i, int j) {
  return (i * 5 + j * 6) % 11 * 0.25 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 1) % 5 + 3;
}

pure double fd0(double x, double y) {
  double r = 0.25;
  if (x > 2.0) {
    r = r * r;
  } else {
    r = 0.29999999999999999;
  }
  return r * 2.0;
}

int main(void) {
  double** M = (double**)malloc(5 * sizeof(double*));
  for (int i = 0; i <= 4; i++) {
    M[i] = (double*)malloc(5 * sizeof(double));
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 1.5 - 0.25;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 0);
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = 0.125;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    B[i + 1][3] = M[i - 1][i + 1];
    p[i + 1] = q[1];
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      p[i] = p[i] + 3 * i;
      B[i + 1][j + 1] = i * 2.7000000000000002 + A[i - 1][j - 1];
    }
  }
  for (int i = 0; i <= 4; i++) {
    w[i] = fillf(i, 2) * 0.125;
  }
  for (int k = 0; k <= 4; k++) {
    col[k] = (k * 5 + 0) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    for (int k = 1; k <= 3; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.29999999999999999;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + fd0(A[j + 1][3], 0.5);
    }
  }
  printf("acc %.17g\n", acc0);
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 4; i++) {
    s6 = s6 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s7 = s7 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s7);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 3; i++) {
    r0 = fmax(r0, 0.29999999999999999);
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical
    g0 += filli(i, 7);
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
      S[i][j] = S[i][j] * 0.10000000000000001 + M[j][j];
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

