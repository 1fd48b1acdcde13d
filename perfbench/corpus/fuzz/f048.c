#include <stdio.h>
#include <stdlib.h>
double A[5][5];
double B[5][5];
double u[5];
int p[5];
int col[5];
double w[5];
double T[5][5];
double S[5][5];
double G[5];
int gx[5];
pure double fillf(int i, int j) {
  return (i * 6 + j * 7) % 13 * 0.125 + 0.25;
}

pure int filli(int i, int j) {
  return (i * 1 + j * 2) % 11 + 3;
}

pure double fd0(double x, double y) {
  double r = y;
  if (x <= 2.7000000000000002) {
    r = x * y;
  }
  return r * 1.3;
}

pure int gi0(int a, int b) {
  int r = b % 5 + (a + 8);
  if (r % 7 > 2) {
    r = a + r;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      A[i][j] = 0.5;
    }
  }
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 4; i++) {
    u[i] = fillf(i, 1);
  }
  for (int i = 0; i <= 4; i++) {
    p[i] = filli(i, i);
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      p[i] = i * 8;
    }
  }
  for (int i = 0; i <= 4; i++) {
    w[i] = 1.25;
  }
  for (int k = 0; k <= 4; k++) {
    col[k] = (k * 1 + 6) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    for (int k = 1; k <= 3; k++) {
      w[i] = w[i] + A[i][col[k]] * 1.3;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= 3; j++) {
      acc0 = acc0 + u[3];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      T[i][j] = fillf(i, j);
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
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 4; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 4; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 4; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  double r0 = 0.0;
#pragma omp parallel for reduction(max:r0)
  for (int i = 1; i <= 3; i++) {
    r0 = fmax(r0, B[i - 1][i - 1]);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 4; i++) {
    for (int j = 0; j <= 4; j++) {
      S[i][j] = fillf(i, j) * 0.25;
    }
  }
#pragma omp parallel for schedule(guided,1)
  for (int i = 1; i <= 3; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + fillf(j + 2, j + 1);
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
    G[i] = 0.25 + 1.3;
  }
  for (int k = 0; k <= 4; k++) {
    gx[k] = filli(k, 1) % 3 + 1;
  }
  for (int i = 1; i <= 3; i++) {
    G[gx[i]] = G[gx[i]] + B[i][i + 1] * 1.3;
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
  return 0;
}

