#include <stdio.h>
#include <stdlib.h>
double A[7][7];
double B[7][7];
double u[7];
int p[7];
double T[7][7];
double S[7][7];
double G[7];
int gx[7];
int g0;
pure double fillf(int i, int j) {
  return (i * 1 + j * 2) % 5 * 2.7000000000000002 + 1.3;
}

pure int filli(int i, int j) {
  return (i * 4 + j * 7) % 3 + 2;
}

pure double fd0(double x, double y) {
  double r = y - 0.29999999999999999;
  if (x <= 1.5) {
    r = x + y;
  } else {
    r = 0.25 - 1.5;
  }
  return r * 0.25;
}

pure double fd1(double x, double y) {
  double r = 1.25;
  if (x >= 0.29999999999999999) {
    r = r;
  } else {
    r = x + 1.3;
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
      A[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      B[i][j] = fillf(i, j);
    }
  }
  for (int i = 0; i <= 6; i++) {
    u[i] = fillf(i, 2);
  }
  for (int i = 0; i <= 6; i++) {
    p[i] = filli(i, i);
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      M[i][j] = fillf(i, j) * 0.125;
    }
  }
  printf("mid A %.17g\n", A[1][1]);
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[i] = fd1(1.3, A[1][2]) * 0.10000000000000001 + fillf(i, j + 2);
      M[i][j + 1] = fd0(B[i + 1][j], j * 2.7000000000000002);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      u[j - 1] = j * 2.0 + u[j];
    }
  }
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      T[i][j] = fillf(i, j);
    }
  }
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= 5; j++) {
      T[i][j] = T[i - 1][j] * 0.5 + B[i][j];
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
  double s2 = 0.0;
  for (int i = 0; i <= 6; i++) {
    s2 = s2 + u[i] * (i * 3 % 7 + 1);
  }
  printf("u %.17g\n", s2);
  int s3 = 0;
  for (int i = 0; i <= 6; i++) {
    s3 = s3 + p[i] * (i * 3 % 7 + 1);
  }
  printf("p %d\n", s3);
  double s4 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s4 = s4 + M[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("M %.17g\n", s4);
  double s5 = 0.0;
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      s5 = s5 + T[i][j] * ((i * 3 + j * 5) % 7 + 1);
    }
  }
  printf("T %.17g\n", s5);
  double r0 = 0.0;
#pragma omp parallel for reduction(+:r0)
  for (int i = 1; i <= 5; i++) {
    r0 += 2.7000000000000002;
  }
  printf("red %.17g\n", r0);
  g0 = 0;
#pragma omp parallel for
  for (int i = 1; i <= 5; i++) {
#pragma omp atomic
    g0 += filli(i, 6);
  }
  printf("crit %d\n", g0);
  for (int i = 0; i <= 6; i++) {
    for (int j = 0; j <= 6; j++) {
      S[i][j] = 0.25;
    }
  }
#pragma omp parallel for schedule(guided,2)
  for (int i = 1; i <= 5; i++) {
    for (int j = 1; j <= i; j++) {
      S[i][j] = S[i][j] * 0.29999999999999999 + fillf(j + 1, i);
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
    G[i] = fillf(i, 0) * 1.3;
  }
  for (int k = 0; k <= 6; k++) {
    gx[k] = k % 4 + 1;
  }
  for (int i = 1; i <= 5; i++) {
    G[gx[i]] = G[gx[i]] + u[i - 1] * 0.10000000000000001;
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
  for (int i = 0; i <= 6; i++) {
    free(M[i]);
  }
  free(M);
  return 0;
}

