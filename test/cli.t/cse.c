long f(long x) { long q = x + 8; long r = q + 8; return r; }
int main(void) { printf("%ld\n", f(5)); return 0; }
