#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double u[7];
double v[7];
int p[7];
int col[7];
double w[7];
double T[7][7];
double G[7];
int gx[7];
pure double fillf(int i, int j) {
  return (i * 1 + j * 4) % 5 * 0.25 + 1.25;
}

pure int filli(int i, int j) {
  return (i * 7 + j * 4) % 5 + 1;
}

pure double fd0(double x, double y) {
  double r = 1.5;
  if (y >= 1.25) {
    r = x;
  } else {
    r = r;
  }
  return r * 0.125;
}

pure int gi0(int a, int b) {
  int r = a % 11 + b * 1;
  if (r % 3 < 1) {
    r = b * a;
  }
  return r;
}

int main(void) {
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = 2.0 - 0.25;
  }
  for (int i = 0; i <= 6; i++) {
    v[i] = fillf(i, 2) * 0.25;
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = i;
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      p[j + 1] = j;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[j] = 0.5 - j * 0.5;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[i] = fillf(2, 0);
      A[i][j - 1] = A[j + 1][i + 1] - A[i + 1][j - 1];
    }
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = 0.25;
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 1 + 4) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 0.125;
    }
  }
  double acc0 = 0.0;
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      acc0 = acc0 + A[j - 1][i - 1];
    }
  }
  printf("acc %.17g\n", acc0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = 0.5;
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 0.125 + A[i][j];
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
    s1 = s1 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s1);
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + v[i] * (i * 3 % 7 + 1);
  }
  printf("v %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  int s4 = 0;
  for (int i = 0; i <= 6; i++) {
    s4 = s4 + col[i] * (i * 3 % 7 + 1);
  }
  printf("col %d\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s5 = s5 + w[i] * (i * 3 % 7 + 1);
  }
  printf("w %.17g\n", s5);
  double s6 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s6 = s6 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s6);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 5; i++) {
    r0 += fillf(i, i);
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 6; i++) {
    G[i] = fillf(i, 1);
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = k % 4 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + A[1][i] * 0.25;
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
  return 0;
}

