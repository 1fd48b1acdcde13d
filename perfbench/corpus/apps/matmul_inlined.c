#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#define N 96

float **A, **Bt, **C;

int main() {
  A = (float**) malloc(N * sizeof(float*));
  Bt = (float**) malloc(N * sizeof(float*));
  C = (float**) malloc(N * sizeof(float*));
  for (int i = 0; i < N; i++) {
    A[i] = (float*) malloc(N * sizeof(float));
    Bt[i] = (float*) malloc(N * sizeof(float));
    C[i] = (float*) malloc(N * sizeof(float));
  }
  for (int i = 0; i < N; i++) {
    for (int j = 0; j < N; j++) {
      A[i][j] = 0.5f + sqrtf((i * 13 + j * 7) % 101 * 0.01f);
      Bt[i][j] = 0.25f + sqrtf((i * 11 + j * 17) % 97 * 0.01f);
      C[i][j] = 0.0f;
    }
  }
#pragma scop
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        C[i][j] = C[i][j] + A[i][k] * Bt[j][k];
#pragma endscop
  float sum = 0.0f;
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      sum += C[i][j] * ((i + j) % 7 + 1);
  printf("checksum %.3f\n", sum);
  return 0;
}
