#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
double v[6];
int p[6];
pure double fillf(int i, int j) {
  return (i * 7 + j * 5) % 7 * 1.5 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 2) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = x;
  if (x < 0.29999999999999999) {
    r = 2.0;
  } else {
    r = x;
  }
  return r + 0.10000000000000001;
}

pure int gi0(int a, int b) {
  int r = (b + 2) % 7;
  if (r % 7 < 2) {
    r = a;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = 1.3;
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = fillf(i, 1) * 2.0;
  }
  for (int i = 0; i <= 5; i++) {
    v[i] = 0.29999999999999999;
  }
  for (int i = 0; i <= 5; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 1; i <= 4; i++) {
    C[i][4] = i * 0.29999999999999999 * 0.125 + fd0(i * 1.25, v[i + 1]);
    p[i + 1] = p[i + 1] - i;
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      acc0 = acc0 + fillf(j, 0);
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
    for (int j = 0; j <= 5; j++) {
      s2 = s2 + C[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("C %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s3 = s3 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s4 = s4 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 5; i++) {
    s5 = s5 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s5);
  return 0;
}

