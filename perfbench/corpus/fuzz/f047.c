#include <stdio.h>
#include <stdlib.h>
double A[6][6];
double B[6][6];
double C[6][6];
double u[6];
double T[6][6];
double S[6][6];
double G[6];
int gx[6];
int g0;
pure double fillf(int i, int j) {
  return (i * 7 + j * 3) % 3 * 1.5 + 1.5;
}

pure int filli(int i, int j) {
  return (i * 6 + j * 7) % 13 + 3;
}

pure double fd0(double x, double y) {
  double r = 1.25 + x;
  if (x < 1.25) {
    r = x;
  } else {
    r = r;
  }
  return r + 0.10000000000000001;
}

pure double fd1(double x, double y) {
  double r = 0.29999999999999999;
  if (x < 0.10000000000000001) {
    r = r;
  } else {
    r = x;
  }
  return r;
}

pure int gi0(int a, int b) {
  int r = 9;
  if (r % 7 > 2) {
    r = b * a;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      A[i][j] = fillf(i, j) * 0.10000000000000001;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      B[i][j] = fillf(i, j) * 2.0;
    }
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      C[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 5; i++) {
    u[i] = 0.29999999999999999;
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      A[i][j] = i * 0.125;
      u[i] = fd1(1.25, B[j - 1][i - 1]) - fillf(0, 3);
    }
  }
  for (int i = 1; i <= 4; i++) {
    B[i][1] = i * 1.25;
    A[i][3] = B[i - 1][i + 1] - fd0(0.10000000000000001, 0.10000000000000001);
  }
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= 4; j++) {
      T[i][j] = T[i - 1][j] * 0.25 + B[i + 1][j - 1];
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
    for (int j = 0; j <= 5; j++) {
      s4 = s4 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s4);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 4; i++) {
    r0 = fmax(r0, fd1(0.125, 0.125));
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 4; i++) {
#pragma omp critical(fuzz_lock)
    g0 += filli(i, 4);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      S[i][j] = 2.0;
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 4; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.125 + fillf(i + 2, i);
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 5; i++) {
    for (int j = 0; j <= 5; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 5; i++) {
    G[i] = 1.5;
  }
  for (int k = 0; k <= 5; k++) {
    gx[k] = k % 3 + 1;
  }
  for (int i = 1; i <= 4; i++) {
    G[gx[i]] = G[gx[i]] + B[i][i + 1] * 0.125;
  }
  double s88 = 0.0;
  for (int i = 0; i <= 5; i++) {
    s88 = s88 + G[i] * (i * 3 % 7 + 1);
  }
  printf("G %.17g\n", s88);
  int s89 = 0;
  for (int i = 0; i <= 5; i++) {
    s89 = s89 + gx[i] * (i * 3 % 7 + 1);
  }
  printf("gx %d\n", s89);
  return 0;
}

