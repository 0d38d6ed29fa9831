int main(void) {
  char *p = (char *)malloc(16);
  long h = (long)p ^ 0x5555;
  p = 0;
  p = (char *)(h ^ 0x5555);
  p[0] = 1;
  printf("%d\n", p[0]);
  return 0;
}
