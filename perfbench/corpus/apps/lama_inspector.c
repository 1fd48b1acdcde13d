#include <stdio.h>
#include <stdlib.h>
#define ROWS 2048
#define MAXNNZ 24
#define REPS 1

double *vals, *x, *y;
int *cols, *nnz;

pure int hash2(int a, int b) {
  int h = a * 2654435 + b * 40503 + 12289;
  h = h ^ (h / 8192);
  if (h < 0) h = -h;
  return h;
}

pure int row_nnz_of(int r, int rows) {
  int h = hash2(r, 17);
  int base = 8 + h % 9;
  if (r > rows - rows / 8) base = MAXNNZ - h % 3;
  return base;
}

pure int col_of(int r, int k, int rows) {
  int h = hash2(r * 31 + k, k);
  int c = r - 16 + h % 33;
  if (c < 0) c = -c;
  if (c >= rows) c = 2 * rows - 2 - c;
  return c;
}

pure double val_of(int r, int k) {
  return 0.001 * (hash2(r, k + 101) % 2000) - 1.0;
}

int main() {

  vals = (double*) malloc(ROWS * MAXNNZ * sizeof(double));
  cols = (int*) malloc(ROWS * MAXNNZ * sizeof(int));
  nnz = (int*) malloc(ROWS * sizeof(int));
  x = (double*) malloc(ROWS * sizeof(double));
  y = (double*) malloc(ROWS * sizeof(double));
  for (int r = 0; r < ROWS; r++) {
    nnz[r] = row_nnz_of(r, ROWS);
    x[r] = 1.0 + (r % 17) * 0.125;
    y[r] = 0.0;
  }
  for (int r = 0; r < ROWS; r++) {
    for (int k = 0; k < MAXNNZ; k++) {
      cols[r * MAXNNZ + k] = col_of(r, k, ROWS);
      vals[r * MAXNNZ + k] = k < nnz[r] ? val_of(r, k) : 0.0;
    }
  }

  for (int rep = 0; rep < REPS; rep++) {
#pragma scop
    for (int r = 0; r < ROWS; r++)
      for (int k = 0; k < MAXNNZ; k++)
        y[r] += vals[r * MAXNNZ + k] * x[cols[r * MAXNNZ + k]];
#pragma endscop
  }

  double sum = 0.0;
  for (int r = 0; r < ROWS; r++)
    sum += y[r] * (r % 13 + 1);
  printf("checksum %.6f\n", sum);
  return 0;
}
