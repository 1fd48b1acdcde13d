
double G[36][36];
int main() {
  for (int i = 0; i < 36; i++)
    for (int j = 0; j < 36; j++)
      G[i][j] = (i * 5 + j * 3) % 17 * 0.25;
#pragma scop
  for (int i = 1; i < 35; i++)
    for (int j = 1; j < 35; j++)
      G[i][j] = 0.2 * (G[i][j] + G[i - 1][j] + G[i][j - 1] + G[i + 1][j] + G[i][j + 1]);
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 36; i++)
    for (int j = 0; j < 36; j++)
      s += G[i][j] * ((i + 2 * j) % 7);
  printf("checksum %.6f\n", s);
  return 0;
}
