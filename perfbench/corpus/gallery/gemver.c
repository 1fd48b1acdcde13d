
double A[48][48]; double u[48]; double v[48]; double x[48]; double y[48];
int main() {
  for (int i = 0; i < 48; i++) {
    u[i] = 1.0 + i * 0.25;
    v[i] = 2.0 - i * 0.125;
    y[i] = i % 7;
    x[i] = 0.0;
  }
#pragma scop
  for (int i = 0; i < 48; i++)
    for (int j = 0; j < 48; j++)
      A[i][j] = u[i] * v[j] + i - j;
#pragma endscop
#pragma scop
  for (int i = 0; i < 48; i++)
    for (int j = 0; j < 48; j++)
      x[i] = x[i] + A[j][i] * y[j];
#pragma endscop
  double s = 0.0;
  for (int i = 0; i < 48; i++) s += x[i];
  printf("checksum %.6f\n", s);
  return 0;
}
