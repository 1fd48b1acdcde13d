
double W[32][32];

pure double bump(int i, int j) {
  return ((i * 3 + j) % 5) * 0.01;
}

int main() {
  for (int i = 0; i < 32; i++)
    for (int j = 0; j < 32; j++)
      W[i][j] = (i + j) % 9 * 0.5;
  for (int i = 1; i < 32; i++)
    for (int j = 1; j < 32; j++)
      W[i][j] = 0.5 * (W[i - 1][j] + W[i][j - 1]) + bump(i, j);
  double s = 0.0;
  for (int i = 0; i < 32; i++)
    for (int j = 0; j < 32; j++)
      s += W[i][j] * ((i * 3 + j) % 4 + 1);
  printf("checksum %.6f\n", s);
  return 0;
}
