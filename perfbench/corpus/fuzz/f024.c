#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double u[6];
int p[6];
int q[6];
double S[6][6];
pure double fillf(int i, int j) {
  return (i * 7 + j * 2) % 5 * 0.25 + 0.29999999999999999;
}

pure int filli(int i, int j) {
  return (i * 5 + j * 1) % 13 + 1;
}

pure double fd0(double x, double y) {
  double r = 0.29999999999999999 + x - (x + x);
  if (x <= 0.5) {
    r = x + 0.29999999999999999;
  } else {
    r = 1.25;
  }
  return r * 1.5;
}

pure int gi0(int a, int b) {
  int r = b + 5 - 4 % 13;
  if (r % 13 > 0) {
    r = b;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 5; i++) {
    q[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      q[i] = filli(j, j) + p[j - 1] - (filli(j, 2) + p[i + 1]);
    }
  }
  for (int i = 1; i <= 4; i++) {
    q[i - 1] = 6 - q[4];
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      A[i][j] = i * 0.29999999999999999;
    }
  }
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
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s4);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = 1.5;
    }
  }
#pragma omp parallel for schedule(static,2)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 1.5 + 1.3;
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

