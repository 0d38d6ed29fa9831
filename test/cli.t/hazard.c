long f(long i) {
  char *p = (char *)malloc(10);
  p[5] = 42;
  return p[i - 100000];   /* legal: i = 100005 */
}
int main(void) { printf("f returned %ld\n", f(100005)); return 0; }
