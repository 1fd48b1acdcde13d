
double A[400]; double B[400];
int main() {
  for (int i = 0; i < 400; i++) A[i] = (i % 13) * 0.5;
  for (int t = 0; t < 12; t++) {
#pragma scop
    for (int i = 1; i < 399; i++)
      B[i] = 0.33333 * (A[i - 1] + A[i] + A[i + 1]);
#pragma endscop
#pragma scop
    for (int i = 1; i < 399; i++)
      A[i] = B[i];
#pragma endscop
  }
  double s = 0.0;
  for (int i = 0; i < 400; i++) s += A[i] * (i % 5);
  printf("checksum %.6f\n", s);
  return 0;
}
