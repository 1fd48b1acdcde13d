#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double C[8][8];
double u[8];
int p[8];
double T[8][8];
double G[8];
int gx[8];
pure double fillf(int i, int j) {
  return (i * 5 + j * 2) % 11 * 1.3 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 7) % 3 + 1;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x >= 0.10000000000000001) {
    r = r;
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
      A[i][j] = fillf(i, j) * 0.25;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      B[i][j] = fillf(i, j) * 0.5;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      C[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = fillf(i, 2) * 2.7000000000000002;
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = i + i;
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      M[i][j] = 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      u[i + 1] = fillf(3, i) - 2.7000000000000002;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + j * 2.7000000000000002;
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 0.5 + A[i + 1][j - 1];
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
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 7; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s5 = s5 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  for (int i = 0; i <= 7; i++) {
    G[i] = fillf(i, 2);
  }
  for (int k = 0; k <= 7; k++) {
    gx[k] = filli(k, 2) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + C[i][i] * 0.5;
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

