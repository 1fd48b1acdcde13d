#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#define N 96

float **A, **Bt, **C;

pure float mult(float a, float b) {
  return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

pure float fillA(int i, int j) {
  return 0.5f + sqrtf((i * 13 + j * 7) % 101 * 0.01f);
}

pure float fillB(int i, int j) {
  return 0.25f + sqrtf((i * 11 + j * 17) % 97 * 0.01f);
}

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
      A[i][j] = fillA(i, j);
      Bt[i][j] = fillB(i, j);
      C[i][j] = 0.0f;
    }
  }
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
  float sum = 0.0f;
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      sum += C[i][j] * ((i + j) % 7 + 1);
  printf("checksum %.3f\n", sum);
  return 0;
}
