
double y[64]; double v[64]; int col[64];
int main() {
  for (int i = 0; i < 64; i++) {
    col[i] = (i * 13 + 5) % 64;
    v[i] = (i % 9) * 0.5 + 1.0;
    y[i] = 0.0;
  }
#pragma scop
  for (int j = 0; j < 64; j++)
    y[col[j]] += v[j] * 2.0;
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 64; i++) s += y[i] * (i % 7 + 1);
  printf("checksum %.6f\n", s);
  return 0;
}
