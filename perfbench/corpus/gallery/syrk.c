
double C[40][40]; double A[40][24];
int main() {
  for (int i = 0; i < 40; i++) {
    for (int k = 0; k < 24; k++)
      A[i][k] = (i * 3 + k) % 11 * 0.25;
    for (int j = 0; j < 40; j++)
      C[i][j] = 0.0;
  }
#pragma scop
  for (int i = 0; i < 40; i++)
    for (int j = 0; j <= i; j++)
      for (int k = 0; k < 24; k++)
        C[i][j] = C[i][j] + A[i][k] * A[j][k];
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 40; i++)
    for (int j = 0; j < 40; j++)
      s += C[i][j] * (i + 2 * j + 1);
  printf("checksum %.6f\n", s);
  return 0;
}
