(* VM builtin library tests: the ambient C library of the problem
   statement, exercised through compiled programs. *)

let run = Util.run

let test_string_functions () =
  Alcotest.(check string) "strcmp/strncmp/strchr"
    "0 -1 1 0 1 d 0\n"
    (run
       {|int main(void) {
  char *a = (char *)malloc(8);
  char *b = (char *)malloc(8);
  strcpy(a, "abc");
  strcpy(b, "abd");
  printf("%d %d %d %d %d %c %d\n",
         strcmp(a, a),
         strcmp(a, b) < 0 ? -1 : 1,
         strcmp(b, a) > 0 ? 1 : -1,
         strncmp(a, b, 2),
         strchr(a, 'z') == 0,
         *strchr(b, 'd'),
         (int)(strchr(a, 'b') - a) - 1);
  return 0;
}|})

let test_strcat () =
  Alcotest.(check string) "strcat" "one,two 7\n"
    (run
       {|int main(void) {
  char *buf = (char *)malloc(32);
  strcpy(buf, "one");
  strcat(buf, ",");
  strcat(buf, "two");
  printf("%s %d\n", buf, (int)strlen(buf));
  return 0;
}|})

let test_calloc_zeroed () =
  Alcotest.(check string) "calloc" "0 0 0\n"
    (run
       {|int main(void) {
  long *p = (long *)calloc(4, sizeof(long));
  printf("%ld %ld %ld\n", p[0], p[1], p[3]);
  return 0;
}|})

let test_realloc_preserves () =
  Alcotest.(check string) "realloc grows and keeps contents" "7 9 ok\n"
    (run
       {|int main(void) {
  long *p = (long *)malloc(2 * sizeof(long));
  long *q;
  p[0] = 7; p[1] = 9;
  q = (long *)realloc(p, 64 * sizeof(long));
  q[63] = 1;
  printf("%ld %ld %s\n", q[0], q[1], "ok");
  return 0;
}|});
  Alcotest.(check string) "realloc(0, n) allocates" "5\n"
    (run
       {|int main(void) {
  long *p = (long *)realloc((void *)0, 8);
  *p = 5;
  printf("%ld\n", *p);
  return 0;
}|})

let test_free_is_noop () =
  (* the problem statement: "remove all calls to free" — the object stays
     reachable and valid after free *)
  Alcotest.(check string) "free removed" "42\n"
    (run
       {|int main(void) {
  long *p = (long *)malloc(8);
  *p = 42;
  free(p);
  GC_collect();
  printf("%ld\n", *p);
  return 0;
}|})

let test_gc_base_builtin () =
  Alcotest.(check string) "GC_base from C" "1 1 1\n"
    (run
       {|int main(void) {
  char *p = (char *)malloc(100);
  long stack_var = 0;
  printf("%d %d %d\n",
         (char *)GC_base(p + 57) == p,
         GC_base((void *)0) == 0,
         (char *)GC_base(p) == p);
  return 0;
}|})

let test_printf_conversions () =
  Alcotest.(check string) "printf subset" "x=-5 c=A s=hi pct=% hex=ff\n"
    (run
       {|int main(void) {
  printf("x=%d c=%c s=%s pct=%% hex=%x\n", -5, 'A', "hi", 255);
  return 0;
}|});
  Alcotest.(check string) "the l modifier before every integer conversion"
    "ff 255 -3 255\n"
    (run
       {|int main(void) {
  printf("%lx %li %ld %lu\n", 255L, 255L, -3L, 255L);
  return 0;
}|})

let test_putchar_puts () =
  Alcotest.(check string) "putchar/puts" "ab\nline\n"
    (run
       {|int main(void) {
  putchar('a'); putchar('b'); putchar(10);
  puts("line");
  return 0;
}|})

let test_abs_and_rand_bounds () =
  Alcotest.(check string) "abs" "5 5 0\n"
    (run {|int main(void) { printf("%d %d %d\n", abs(5), abs(-5), abs(0)); return 0; }|});
  Alcotest.(check string) "rand stays nonnegative" "ok\n"
    (run
       {|int main(void) {
  int i;
  srand(99);
  for (i = 0; i < 1000; i++) {
    int v = rand();
    if (v < 0) { puts("neg"); return 1; }
  }
  puts("ok");
  return 0;
}|})

let test_gc_collect_builtin () =
  Alcotest.(check string) "explicit collection frees garbage" "1\n"
    (run
       {|int main(void) {
  long i;
  for (i = 0; i < 100; i++) malloc(64);
  GC_collect();
  puts("1");
  return 0;
}|})

let test_memcmp_style_loop () =
  (* memmove with overlapping ranges, both directions *)
  Alcotest.(check string) "memmove overlap" "aabcd bcdde\n"
    (run
       {|int main(void) {
  char *s1 = (char *)malloc(8);
  char *s2 = (char *)malloc(8);
  strcpy(s1, "abcde");
  strcpy(s2, "abcde");
  memmove(s1 + 1, s1, 4);   /* shift right: aabcd */
  memmove(s2, s2 + 1, 3);   /* shift left: bcdde */
  printf("%s %s\n", s1, s2);
  return 0;
}|})

let suite =
  [
    Alcotest.test_case "string functions" `Quick test_string_functions;
    Alcotest.test_case "strcat" `Quick test_strcat;
    Alcotest.test_case "calloc zeroes" `Quick test_calloc_zeroed;
    Alcotest.test_case "realloc" `Quick test_realloc_preserves;
    Alcotest.test_case "free is removed" `Quick test_free_is_noop;
    Alcotest.test_case "GC_base from C" `Quick test_gc_base_builtin;
    Alcotest.test_case "printf conversions" `Quick test_printf_conversions;
    Alcotest.test_case "putchar/puts" `Quick test_putchar_puts;
    Alcotest.test_case "abs and rand" `Quick test_abs_and_rand_bounds;
    Alcotest.test_case "GC_collect" `Quick test_gc_collect_builtin;
    Alcotest.test_case "memmove overlap" `Quick test_memcmp_style_loop;
  ]
