int main(void) {
  char *big = (char *)malloc(5000);
  long i;
  long keep = 0;
  big[4999] = 7;
  for (i = 0; i < 40; i = i + 1) {
    char *t = (char *)malloc(16 + (i % 5) * 8);
    t[0] = i;
    keep = keep + t[0];
  }
  printf("churn %ld big %ld\n", keep, (long)big[4999]);
  return 0;
}
