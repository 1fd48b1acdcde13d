#include <stdio.h>
#include <stdlib.h>
#define N 96
#define T 16

double *A, *B;

int main() {
  A = (double*) malloc(N * N * sizeof(double));
  B = (double*) malloc(N * N * sizeof(double));
  for (int i = 0; i < N; i++) {
    for (int j = 0; j < N; j++) {
      A[i * N + j] = 0.0;
      B[i * N + j] = 0.0;
    }
  }
  A[(N / 2) * N] = 100.0;
  for (int t = 0; t < T; t++) {
#pragma scop
    for (int i = 1; i < N - 1; i++)
      for (int j = 1; j < N - 1; j++)
        B[i * N + j] = 0.25 * (A[(i - 1) * N + j] + A[(i + 1) * N + j]
                             + A[i * N + j - 1] + A[i * N + j + 1]);
#pragma endscop
#pragma scop
    for (int i = 1; i < N - 1; i++)
      for (int j = 1; j < N - 1; j++)
        A[i * N + j] = B[i * N + j];
#pragma endscop
    A[(N / 2) * N] = 100.0;
  }
  double sum = 0.0;
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      sum += A[i * N + j] * ((i * 3 + j) % 5 + 1);
  printf("checksum %.6f\n", sum);
  return 0;
}
