#include <stdio.h>
#include <stdlib.h>
double A[8][8];
double B[8][8];
double u[8];
int p[8];
int q[8];
double T[8][8];
double S[8][8];
double G[8];
int gx[8];
pure double fillf(int i, int j) {
  return (i * 1 + j * 1) % 13 * 1.5 + 0.125;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 3) % 3 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.3;
  if (x >= 1.5) {
    r = 0.10000000000000001;
  } else {
    r = y + r;
  }
  return r * 0.25;
}

pure double fd1(double x, double y) {
  double r = x;
  if (y < 0.5) {
    r = fd0(x, 1.3);
  } else {
    r = x;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = b * 7;
  if (r % 3 > 1) {
    r = a % 7;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      A[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      B[i][j] = 0.10000000000000001 * 0.125;
    }
  }
  for (int i = 0; i <= 7; i++) {
    u[i] = 1.5;
  }
  for (int i = 0; i <= 7; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 7; i++) {
    q[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 6; i++) {
    p[i] = p[i + 1] - i % 11;
    p[i] = p[i] + q[5];
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      p[j] = 1 % 7 - i * i;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      acc0 = acc0 + B[i - 1][j - 1];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      T[i][j] = 1.3;
    }
  }
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= 6; j++) {
      T[i][j] = T[i - 1][j] * 0.25 + A[i][j];
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 7; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 7; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      s5 = s5 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s5);
  for (int i = 0; i <= 7; i++) {
    for (int j = 0; j <= 7; j++) {
      S[i][j] = fillf(i, j) * 1.5;
    }
  }
#pragma omp parallel for schedule(static,2)
  for (int i = 1; i <= 6; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 2.0 + j * 0.5;
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
    gx[k] = filli(k, 4) % 6 + 1;
  }
  for (int i = 1; i <= 6; i++) {
    G[gx[i]] = G[gx[i]] + B[i - 1][i] * 1.5;
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
  return 0;
}

