#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
int p[7];
int col[7];
double w[7];
double T[7][7];
double S[7][7];
pure double fillf(int i, int j) {
  return (i * 7 + j * 7) % 5 * 1.5 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 3 + j * 5) % 5 + 3;
}

pure double fd0(double x, double y) {
  double r = x + x;
  if (x >= 0.25) {
    r = 0.10000000000000001;
  } else {
    r = r;
  }
  return r * 0.29999999999999999;
}

pure int gi0(int a, int b) {
  int r = 1 + b - (b + a);
  if (r % 3 < 1) {
    r = b;
  }
  return r;
}

int main(void) {
  double** M = (double**)malloc(7 * sizeof(double*));
  for (int i = 0; i <= 6; i++) {
    M[i] = (double*)malloc(7 * sizeof(double));
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      A[i][j] = fillf(i, j) * 0.29999999999999999;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = 6 * i;
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      M[i][j] = 0.10000000000000001;
    }
  }
  for (int i = 1; i <= 5; i++) {
    A[i + 1][4] = i * 1.25;
    A[i][i + 1] = A[3][i - 1];
  }
  for (int i = 0; i <= 6; i++) {
    w[i] = fillf(i, 0);
  }
  for (int k = 0; k <= 6; k++) {
    col[k] = (k * 1 + 6) % 5 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    for (int k = 1; k <= 5; k++) {
      w[i] = w[i] + A[i][col[k]] * 1.5;
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 2.0 + B[i + 1][j - 1];
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
    for (int j = 0; j <= 6; j++) {
      s1 = s1 + B[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("B %.17g\n", s1);
  int s2 = 0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s2);
  double s3 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s3 = s3 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s3);
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
    r0 += M[i][i - 1];
  }
  printf("red %.17g\n", r0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = 1.5;
    }
  }
#pragma omp parallel for schedule(dynamic,1)
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.125 + 0.25;
    }
  }
  double s77 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s77 = s77 + S[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("S %.17g\n", s77);
  for (int i = 0; i <= 6; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

