#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double C[5][5];
double u[5];
int p[5];
int q[5];
double T[5][5];
double S[5][5];
int g0;
pure double fillf(int i, int j) {
  return (i * 6 + j * 6) % 3 * 0.25 + 0.5;
}

pure int filli(int i, int j) {
  return (i * 2 + j * 4) % 7 + 2;
}

pure double fd0(double x, double y) {
  double r = (y - y) * (y + x);
  if (y < 0.125) {
    r = 0.29999999999999999 * y;
  }
  return r * 1.3;
}

pure double fd1(double x, double y) {
  double r = 0.25;
  if (x > 0.10000000000000001) {
    r = 0.25;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = b;
  if (r % 5 < 2) {
    r = 8 % 13;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      C[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = 2.7000000000000002;
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = i % 7;
  }
  for (int i = 0; i <= 4; i++) {
    q[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      B[i + 1][j] = j * 2.7000000000000002;
      C[i - 1][j] = j * 0.10000000000000001 + C[i + 1][j - 1];
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      A[i][j] = A[i - 1][j + 1] - j * 0.25;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + fillf(j + 1, i + 2);
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      T[i][j] = T[i - 1][j] * 0.125 + A[i + 1][j - 1];
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
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s4);
  int s5 = 0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + q[i] * (i * 3 % 7 + 1);
  }
  printf("q %d\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 3; i++) {
    r0 += u[i + 1];
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 3; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 4);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.25 + A[i][i];
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

