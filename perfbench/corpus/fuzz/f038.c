#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double u[5];
double v[5];
int p[5];
double T[5][5];
double S[5][5];
pure double fillf(int i, int j) {
  return (i * 1 + j * 1) % 11 * 1.5 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 2) % 3 + 2;
}

pure double fd0(double x, double y) {
  double r = x;
  if (y <= 0.29999999999999999) {
    r = r;
  } else {
    r = 1.25;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 0.125;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = 1.25;
  }
  for (int i = 0; i <= 4; i++) {
    v[i] = fillf(i, 2) * 0.25;
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      p[i] = p[j];
      v[j + 1] = fillf(2, i);
    }
  }
  for (int i = 1; i <= 3; i++) {
    p[i + 1] = 6 + i - p[i - 1];
  }
  for (int i = 1; i <= 3; i++) {
    v[i] = fillf(i, 3) * 0.29999999999999999 + A[2][i - 1];
    A[i][2] = 0.29999999999999999 * 2.0 + i * 0.125;
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j) * 0.125;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.10000000000000001 + A[i][j];
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s5 = s5 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s5);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = 2.7000000000000002;
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.125 + fd0(j * 0.29999999999999999, 0.5);
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  return 0;
}

