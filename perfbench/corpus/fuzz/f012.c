#include <stdio.h>
#include <stdlib.h>
double A[5][5];
int p[5];
int q[5];
double T[5][5];
double S[5][5];
double G[5];
int gx[5];
pure double fillf(int i, int j) {
  return (i * 2 + j * 5) % 13 * 0.10000000000000001 + 0.125;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 6) % 3 + 1;
}

pure double fd0(double x, double y) {
  double r = y - x;
  if (x < 1.3) {
    r = x - x;
  }
  return r * 0.125;
}

pure double fd1(double x, double y) {
  double r = 1.5 + fd0(1.25, 0.5);
  if (y <= 0.25) {
    r = fd0(y, 1.5);
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = b % 11 * (b % 7);
  if (r % 11 < 0) {
    r = r + r;
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
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = 8;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      M[i][j] = fillf(i, j) * 2.7000000000000002;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    p[i] = p[i + 1];
    q[i + 1] = i - i % 11;
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      p[i + 1] = q[2] - filli(i, 1);
      p[j] = i + filli(j, 0);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      M[i - 1][j] = fillf(0, i) * 1.3 + fillf(j, 2);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 1.3 + A[i + 1][j - 1];
    }
  }
  double s0 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s0 = s0 + A[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("A %.17g\n", s0);
  int s1 = 0;
  for (int i = 0; i <= 4; i++) {
    s1 = s1 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s1);
  int s2 = 0;
  for (int i = 0; i <= 4; i++) {
    s2 = s2 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
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
    r0 += fillf(i, i + 1);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + fd0(0.10000000000000001, M[i + 1][3]);
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
    G[i] = fillf(i, 2) * 1.3;
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = filli(k, 2) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + A[i + 1][i] * 2.7000000000000002;
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

