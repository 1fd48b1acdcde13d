#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#define W 64
#define H 64
#define BANDS 16

double *cube, *aod;

pure double radiance(int x, int y, int b) {
  double base = 0.08 + 0.8 * y / H;
  double ripple = 0.015 * ((x * 7 + b * 3) % 11);
  return base + ripple;
}

pure double surface_term(pure double* c, int idx, int b, int nb) {
  double r = c[idx * nb + b];
  return r / (1.0 + 0.5 * r);
}

pure double retrieve_aod(pure double* c, int x, int y, int w, int nb) {
  int idx = y * w + x;
  double sum = 0.0;
  for (int b = 0; b < nb; b++)
    sum += surface_term(c, idx, b, nb);
  double target = sum / nb;
  double tau = 0.05;
  double err = 1.0;
  int iter = 0;
  while (err > 0.0005 && iter < 400) {
    double model = tau * (1.0 - 0.35 * tau) + 0.05;
    err = fabs(model - target);
    if (model < target)
      tau = tau + 0.22 * (target - model);
    else
      tau = tau - 0.22 * (model - target);
    iter = iter + 1;
  }
  return tau;
}

int main() {
  cube = (double*) malloc(W * H * BANDS * sizeof(double));
  aod = (double*) malloc(W * H * sizeof(double));
  for (int y = 0; y < H; y++)
    for (int x = 0; x < W; x++)
      for (int b = 0; b < BANDS; b++)
        cube[(y * W + x) * BANDS + b] = radiance(x, y, b);
  for (int y = 0; y < H; y++)
    for (int x = 0; x < W; x++)
      aod[y * W + x] = retrieve_aod((pure double*)cube, x, y, W, BANDS);
  double sum = 0.0;
  for (int y = 0; y < H; y++)
    for (int x = 0; x < W; x++)
      sum += aod[y * W + x] * ((x + y) % 3 + 1);
  printf("checksum %.6f\n", sum);
  return 0;
}
