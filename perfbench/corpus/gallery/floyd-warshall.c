
double D[28][28];
int main() {
  for (int i = 0; i < 28; i++)
    for (int j = 0; j < 28; j++)
      D[i][j] = i == j ? 0.0 : ((i * 7 + j * 5) % 23 + 1) * 1.0;
#pragma scop
  for (int k = 0; k < 28; k++)
    for (int i = 0; i < 28; i++)
      for (int j = 0; j < 28; j++)
        D[i][j] = D[i][j] < D[i][k] + D[k][j] ? D[i][j] : D[i][k] + D[k][j];
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 28; i++)
    for (int j = 0; j < 28; j++)
      s += D[i][j];
  printf("checksum %.6f\n", s);
  return 0;
}
