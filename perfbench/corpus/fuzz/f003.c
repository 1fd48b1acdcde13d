#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double C[8][8];
double u[8];
double v[8];
int p[8];
int q[8];
double S[8][8];
double G[8];
int gx[8];
pure double fillf(int i, int j) {
  return (i * 4 + j * 3) % 7 * 0.25 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 7) % 11 + 1;
}

pure double fd0(double x, double y) {
  double r = y;
  if (y < 1.5) {
    r = x + 1.3;
  }
  return r * 2.7000000000000002;
}

pure double fd1(double x, double y) {
  double r = fd0(x, x);
  if (x > 0.25) {
    r = x + 0.29999999999999999;
  } else {
    r = 1.3;
  }
  return r + 0.10000000000000001;
}

int main(void) {
  double** M = (double**)malloc(8 * sizeof(double*));
  for (int i = 0; i <= 7; i++) {
    M[i] = (double*)malloc(8 * sizeof(double));
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      C[i][j] = 0.10000000000000001 * 1.25;
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = 0.29999999999999999 - 2.7000000000000002;
  }
  for (int i = 0; i <= 7; i++) {
    v[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = fillf(i, j) * 0.5;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      p[j] = filli(3, j) + q[j];
      u[i] = A[j + 1][2];
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      p[j - 1] = p[2] + filli(j, j);
      q[j] = q[j];
    }
  }
  for (int i = 1; i <= 6; i++) {
    u[i + 1] = fillf(3, i) * 0.29999999999999999 + A[i][2];
    M[i + 1][3] = v[i - 1] - 0.125;
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
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 7; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  int s6 = 0;
  for (int i = 0; i <= 7; i++) {
    s6 = s6 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s6);
  double s7 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s7 = s7 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s7);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = fillf(i, j) * 0.25;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 2.7000000000000002 + A[i][i];
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
    G[i] = 2.0;
  }
  for (int k = 0; k <= 7; k++) {
    gx[k] = filli(k, 2) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + C[i - 1][5] * 2.0;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 7; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 7; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 7; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

