
double A[40][40];
int main() {
  for (int i = 0; i < 40; i++)
    for (int j = 0; j < 40; j++)
      A[i][j] = ((i * 5 + j * 3) % 11) * 0.5;
#pragma scop
  for (int i = 1; i < 40; i++)
    for (int j = 0; j < 39; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 40; i++)
    for (int j = 0; j < 40; j++)
      s += A[i][j] * ((i + 3 * j) % 5);
  printf("checksum %.6f\n", s);
  return 0;
}
