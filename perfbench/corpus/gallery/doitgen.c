
double A[12][12][16]; double C4[16][16]; double S[12][12][16];
int main() {
  for (int r = 0; r < 12; r++)
    for (int q = 0; q < 12; q++)
      for (int p = 0; p < 16; p++)
        A[r][q][p] = ((r * 3 + q * 5 + p) % 13) * 0.25;
  for (int p = 0; p < 16; p++)
    for (int s = 0; s < 16; s++)
      C4[p][s] = ((p * 7 + s) % 9) * 0.5;
#pragma scop
  for (int r = 0; r < 12; r++)
    for (int q = 0; q < 12; q++)
      for (int p = 0; p < 16; p++)
        for (int s = 0; s < 16; s++)
          S[r][q][p] = S[r][q][p] + A[r][q][s] * C4[s][p];
#pragma endscop
  double total = 0.0;
  for (int r = 0; r < 12; r++)
    for (int q = 0; q < 12; q++)
      for (int p = 0; p < 16; p++)
        total += S[r][q][p] * (r + q + p);
  printf("checksum %.6f\n", total);
  return 0;
}
