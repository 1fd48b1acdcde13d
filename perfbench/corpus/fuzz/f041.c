#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double C[7][7];
int p[7];
int q[7];
double T[7][7];
double S[7][7];
double G[7];
int gx[7];
pure double fillf(int i, int j) {
  return (i * 1 + j * 3) % 3 * 0.10000000000000001 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 2) % 3 + 4;
}

pure double fd0(double x, double y) {
  double r = 0.10000000000000001;
  if (x <= 1.5) {
    r = r + 0.125;
  } else {
    r = x + r;
  }
  return r;
}

pure double fd1(double x, double y) {
  double r = fd0(y, 0.25);
  if (x >= 1.25) {
    r = x * 0.10000000000000001;
  }
  return r + 2.7000000000000002;
}

pure int gi0(int a, int b) {
  int r = 3 + b + (b + 1);
  if (r % 13 > 1) {
    r = b - 2;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(7 * sizeof(double*));
  for (int i = 0; i <= 6; i++) {
    M[i] = (double*)malloc(7 * sizeof(double));
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 0.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      C[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 6; i++) {
    q[i] = filli(i, i);
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      M[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    C[i][1] = M[i][i + 1];
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      A[i][j - 1] = B[i + 1][j + 1] * 0.29999999999999999 + M[j][i + 1];
    }
  }
  for (int i = 1; i <= 5; i++) {
    A[i + 1][i] = fillf(i + 2, i + 1) * 2.7000000000000002 + 0.125;
    M[i - 1][4] = B[i + 1][i + 1];
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 2.7000000000000002 + C[i + 1][j - 1];
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
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = fillf(i, j);
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 1.25 + fd0(j * 1.5, i * 2.7000000000000002);
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 1) * 0.10000000000000001;
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = filli(k, 5) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + C[i][i - 1] * 0.5;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 6; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  for (int i = 0; i <= 6; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

