(* Compiler + VM semantics: every C construct in the subset, executed and
   checked against expected output, in both -O and -g modes. *)

let both name src expected =
  Alcotest.(check string) (name ^ " -O") expected (Util.run src);
  Alcotest.(check string)
    (name ^ " -g") expected
    (Util.run ~mode:Ir.Compile.debug_mode ~optimize:false src)

let test_arith () =
  both "arithmetic"
    {|int main(void) {
  printf("%d %d %d %d %d\n", 7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3);
  printf("%d %d %d\n", -7 / 3, -7 % 3, 1 << 10);
  printf("%d %d %d %d\n", 255 & 15, 240 | 15, 255 ^ 15, ~0);
  printf("%d %d\n", -1 >> 1, 1024 >> 3);
  return 0;
}|}
    "10 4 21 2 1\n-2 -1 1024\n15 255 240 -1\n-1 128\n"

let test_comparisons () =
  both "comparisons"
    {|int main(void) {
  printf("%d%d%d%d%d%d\n", 1 < 2, 2 < 1, 2 <= 2, 3 >= 4, 5 == 5, 5 != 5);
  printf("%d%d\n", -1 < 0, -1 < 1);
  return 0;
}|} "101010\n11\n"

let test_logical () =
  both "short circuit"
    {|int side;
int bump(int v) { side++; return v; }
int main(void) {
  side = 0;
  if (0 && bump(1)) ;
  printf("%d", side);
  if (1 || bump(1)) ;
  printf("%d", side);
  if (1 && bump(1)) ;
  printf("%d", side);
  if (0 || bump(0)) ;
  printf("%d\n", side);
  printf("%d %d\n", !5, !0);
  return 0;
}|} "0012\n0 1\n"

let test_control_flow () =
  both "loops and branches"
    {|int main(void) {
  int i; int sum = 0;
  for (i = 0; i < 10; i++) { if (i == 3) continue; if (i == 8) break; sum += i; }
  printf("%d ", sum);
  i = 0; while (i < 5) i++;
  printf("%d ", i);
  i = 10; do i--; while (i > 5);
  printf("%d\n", i);
  return 0;
}|} "25 5 5\n"

let test_conditional_expr () =
  both "?: and comma"
    {|int main(void) {
  int a = 3; int b = 9;
  printf("%d %d ", a > b ? a : b, a < b ? a : b);
  printf("%d\n", (a = 5, b = a + 1, a + b));
  return 0;
}|} "9 3 11\n"

let test_char_semantics () =
  both "signed char narrowing"
    {|int main(void) {
  char c = 200;  /* wraps to -56 */
  int i = c;
  char d = 'A' + 1;
  printf("%d %c\n", i, d);
  return 0;
}|} "-56 B\n"

let test_widths () =
  both "load/store widths"
    {|short gs; int gi; long gl; char gc;
int main(void) {
  gc = 300;   /* truncates */
  gs = 70000; /* truncates */
  gi = 1 << 20;
  gl = 1;
  gl = gl << 40;
  printf("%d %d %d %ld\n", gc, gs, gi, gl);
  return 0;
}|} "44 4464 1048576 1099511627776\n"

let test_pointers () =
  both "pointer basics"
    {|int main(void) {
  long x = 11; long y = 22;
  long *p = &x;
  *p = 33;
  p = &y;
  *p += 11;
  printf("%ld %ld ", x, y);
  printf("%d\n", p == &y && p != &x);
  return 0;
}|} "33 33 1\n"

let test_pointer_arith () =
  both "pointer arithmetic scaling"
    {|int main(void) {
  long a[5];
  long *p = a;
  long *q = &a[4];
  int i;
  for (i = 0; i < 5; i++) a[i] = i * 100;
  printf("%ld %ld %ld ", *(p + 2), p[3], *--q);
  printf("%ld %d\n", q - p, q > p);
  return 0;
}|} "200 300 300 3 1\n"

let test_strings_and_arrays () =
  both "strings, arrays, globals"
    {|char *msg = "global";
char buf[16];
int main(void) {
  strcpy(buf, msg);
  strcat(buf, "!");
  printf("%s %d %d\n", buf, (int)strlen(buf), strcmp(buf, "global!"));
  printf("%c%c\n", msg[0], "xyz"[1]);
  return 0;
}|} "global! 7 0\ngy\n"

let test_structs () =
  both "structs and unions"
    {|struct point { int x; int y; };
struct rect { struct point a; struct point b; };
union pun { long l; char c[8]; };
int main(void) {
  struct rect r;
  struct rect s;
  union pun u;
  r.a.x = 1; r.a.y = 2; r.b.x = 3; r.b.y = 4;
  s = r;                       /* whole-struct copy */
  s.a.x = 99;
  printf("%d %d %d ", r.a.x, s.a.x, s.b.y);
  u.l = 0x2122232425262728;   /* the VM word is 63 bits wide */
  printf("%c%c\n", u.c[0], u.c[7]);   /* little endian */
  return 0;
}|} "1 99 4 (!\n"

let test_heap_structs () =
  both "heap-allocated linked structures"
    {|struct node { struct node *next; long v; };
int main(void) {
  struct node *head = 0;
  long i; long sum = 0;
  for (i = 0; i < 100; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i; n->next = head; head = n;
  }
  while (head) { sum += head->v; head = head->next; }
  printf("%ld\n", sum);
  return 0;
}|} "4950\n"

let test_recursion () =
  both "recursion"
    {|int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main(void) { printf("%d %d\n", fib(15), ack(2, 3)); return 0; }|}
    "610 9\n"

let test_increments () =
  both "increment forms"
    {|int main(void) {
  int i = 5; int a;
  a = i++; printf("%d%d ", a, i);
  a = ++i; printf("%d%d ", a, i);
  a = i--; printf("%d%d ", a, i);
  a = --i; printf("%d%d\n", a, i);
  {
    char s[4]; char *p = s; char *q = s;
    s[0] = 'a'; s[1] = 'b'; s[2] = 'c'; s[3] = 0;
    printf("%c%c%c\n", *p++, *++q, *p);
  }
  return 0;
}|} "56 77 76 55\nabb\n"

let test_compound_assign () =
  both "compound assignment"
    {|int main(void) {
  int x = 100;
  x += 5; x -= 3; x *= 2; x /= 4; x %= 13;
  printf("%d ", x);
  x = 3; x <<= 4; x >>= 2; x |= 1; x &= 7; x ^= 2;
  printf("%d\n", x);
  return 0;
}|} "12 7\n"

let test_multidim_arrays () =
  both "2-d arrays"
    {|int m[3][4];
int main(void) {
  int i; int j; int sum = 0;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      m[i][j] = i * 10 + j;
  for (i = 0; i < 3; i++) sum += m[i][i];
  printf("%d %d\n", sum, m[2][3]);
  return 0;
}|} "33 23\n"

let test_struct_arrays_fields () =
  both "arrays inside structs"
    {|struct s { int tag; int data[4]; };
int main(void) {
  struct s v;
  struct s *p = &v;
  int i;
  v.tag = 7;
  for (i = 0; i < 4; i++) p->data[i] = i * i;
  printf("%d %d %d\n", v.tag, v.data[3], p->data[2]);
  return 0;
}|} "7 9 4\n"

let test_globals_init () =
  both "global initializers"
    {|int a = 40 + 2;
long b = -7;
char c = 'x';
char msg[8] = "hiya";
char *pmsg = "indirect";
int main(void) {
  printf("%d %ld %c %s %s\n", a, b, c, msg, pmsg);
  return 0;
}|} "42 -7 x hiya indirect\n"

let test_builtin_memory () =
  both "memset/memcpy/memmove/realloc"
    {|int main(void) {
  char *a = (char *)malloc(16);
  char *b;
  memset(a, 'z', 15);
  a[15] = 0;
  a[0] = 'A';
  b = (char *)realloc(a, 32);
  b[15] = '!'; b[16] = 0;
  printf("%s\n", b);
  memmove(b + 1, b, 8);
  b[0] = '<';
  printf("%s\n", b);
  return 0;
}|} "Azzzzzzzzzzzzzz!\n<Azzzzzzzzzzzzz!\n"

let test_exit_code () =
  let irp = Util.compile "int main(void) { return 42; }" in
  let r = Machine.Vm.run irp in
  Alcotest.(check int) "exit code" 42 r.Machine.Vm.r_exit;
  let irp2 = Util.compile "int main(void) { exit(7); return 0; }" in
  let r2 = Machine.Vm.run irp2 in
  Alcotest.(check int) "exit()" 7 r2.Machine.Vm.r_exit

let test_faults () =
  let expect_fault name src =
    let irp = Util.compile src in
    match Machine.Vm.run irp with
    | exception Machine.Vm.Fault _ -> ()
    | _ -> Alcotest.failf "%s: expected a fault" name
  in
  expect_fault "null deref" "int main(void) { int *p = 0; return *p; }";
  expect_fault "division by zero" "int main(void) { int z = 0; return 1 / z; }";
  expect_fault "abort" "int main(void) { abort(); return 0; }";
  expect_fault "assert" "int main(void) { assert_true(1 == 2); return 0; }";
  expect_fault "wild store"
    "int main(void) { long *p = (long *)99999999; *p = 1; return 0; }"

(* Hand-built IR for the faults a VM could raise at load time instead of
   at the step that hits them, or lose: each must carry its exact message,
   and only when executed. *)
let hand_program funcs =
  let open Ir.Instr in
  let func ?(params = []) name blocks =
    {
      fn_name = name;
      fn_params = params;
      fn_ret_void = false;
      fn_blocks =
        List.mapi
          (fun l (is, t) -> { b_label = l; b_instrs = is; b_term = t })
          blocks;
      fn_nreg = 4;
      fn_frame = 0;
    }
  in
  {
    p_funcs =
      List.map (fun (name, params, blocks) -> func ~params name blocks) funcs;
    p_statics = Bytes.empty;
    p_relocs = [];
  }

let test_fault_messages () =
  let open Ir.Instr in
  let expect name msg p =
    match Machine.Vm.run p with
    | exception Machine.Vm.Fault m -> Alcotest.(check string) name msg m
    | _ -> Alcotest.failf "%s: expected the fault %S" name msg
  in
  let ret0 = Ret (Some (Imm 0)) in
  expect "unknown label" "jump to unknown label L5"
    (hand_program [ ("main", [], [ ([ Mov (1, Imm 1) ], Jmp 5) ]) ]);
  expect "unknown branch target" "jump to unknown label L9"
    (hand_program
       [ ("main", [], [ ([ Mov (1, Imm 0) ], Br (Reg 1, 0, 9)) ]) ]);
  let unreachable =
    hand_program [ ("main", [], [ ([], ret0); ([], Jmp 99) ]) ]
  in
  Alcotest.(check int) "an unreachable bad label never faults" 0
    (Machine.Vm.run unreachable).Machine.Vm.r_exit;
  expect "underflow" "argument queue underflow"
    (hand_program
       [ ("main", [], [ ([ Push (Imm 1); Call (None, "f", 2) ], ret0) ]);
         ("f", [ 1; 2 ], [ ([], ret0) ]) ]);
  expect "builtin underflow" "argument queue underflow"
    (hand_program [ ("main", [], [ ([ Call (None, "putchar", 1) ], ret0) ]) ]);
  expect "arity" "arity mismatch calling f"
    (hand_program
       [ ("main", [], [ ([ Push (Imm 1); Push (Imm 2); Call (None, "f", 2) ],
                         ret0) ]);
         ("f", [ 1 ], [ ([], ret0) ]) ]);
  expect "unknown builtin" "unknown builtin foo/2"
    (hand_program
       [ ("main", [], [ ([ Push (Imm 1); Push (Imm 2); Call (Some 1, "foo", 2) ],
                         ret0) ]) ])

(* The step ceiling is checked after every step except the one that
   leaves [main]: a run of [n] steps needs [n - 1] checked steps, so it
   completes under a ceiling of [n - 1] and traps under [n - 2]. *)
let test_step_ceiling_exact () =
  let irp =
    Util.compile
      "int main(void) { int i; long s = 0;\n\
       for (i = 0; i < 50; i++) s += i; return s % 7; }"
  in
  let full = Machine.Vm.run irp in
  let n = full.Machine.Vm.r_instrs in
  let with_ceiling k =
    Machine.Vm.run
      ~config:
        { (Machine.Vm.default_config ()) with Machine.Vm.vm_max_instrs = k }
      irp
  in
  let r = with_ceiling (n - 1) in
  Alcotest.(check int) "same steps under ceiling n - 1" n r.Machine.Vm.r_instrs;
  Alcotest.(check int) "same exit" full.Machine.Vm.r_exit r.Machine.Vm.r_exit;
  Alcotest.(check int) "same cycles" full.Machine.Vm.r_cycles
    r.Machine.Vm.r_cycles;
  match with_ceiling (n - 2) with
  | exception Machine.Vm.Trap (Machine.Vm.Step_limit, msg) ->
      Alcotest.(check string) "trap message"
        (Printf.sprintf "instruction budget exceeded (%d steps)" (n - 2))
        msg
  | _ -> Alcotest.fail "expected a step-limit trap under ceiling n - 2"

let test_stack_overflow () =
  let irp =
    Util.compile "int f(int n) { return f(n + 1); } int main(void) { return f(0); }"
  in
  match Machine.Vm.run irp with
  | exception Machine.Vm.Fault m ->
      Alcotest.(check bool) "stack overflow reported" true
        (String.length m >= 5 && String.sub m 0 5 = "stack")
  | _ -> Alcotest.fail "expected stack overflow"

let test_gc_during_run () =
  (* allocation churn forces collections; live data survives *)
  let src =
    {|struct node { struct node *next; long v; };
int main(void) {
  long rep; long total = 0;
  for (rep = 0; rep < 40; rep++) {
    struct node *keep = 0;
    long i;
    for (i = 0; i < 300; i++) {
      struct node *n = (struct node *)malloc(sizeof(struct node));
      n->v = i;
      n->next = i % 50 == 0 ? keep : 0;
      if (i % 50 == 0) keep = n;
    }
    while (keep) { total += keep->v; keep = keep->next; }
  }
  printf("%ld\n", total);
  return 0;
}|}
  in
  let irp = Util.compile src in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_heap =
        { Gcheap.Heap.default_config with Gcheap.Heap.gc_threshold = 8 * 1024 };
    }
  in
  let r = Machine.Vm.run ~config irp in
  Alcotest.(check string) "output" "30000\n" r.Machine.Vm.r_output;
  Alcotest.(check bool) "collections happened" true (r.Machine.Vm.r_gc_count > 3)

let test_rand_deterministic () =
  let src =
    {|int main(void) { srand(7); printf("%d %d %d\n", rand() % 100, rand() % 100, rand() % 100); return 0; }|}
  in
  Alcotest.(check string) "deterministic" (Util.run src) (Util.run src)

let test_cycles_positive () =
  let irp = Util.compile "int main(void) { return 0; }" in
  let r = Machine.Vm.run irp in
  Alcotest.(check bool) "counts" true
    (r.Machine.Vm.r_instrs > 0 && r.Machine.Vm.r_cycles > 0)

let test_two_operand_penalty () =
  (* the same program costs more cycles on a two-operand machine than the
     instruction stream alone explains; compare machine models *)
  let src =
    {|int main(void) { int i; long s = 0; for (i = 0; i < 1000; i++) s += i * 2 + 1; printf("%ld\n", s); return 0; }|}
  in
  let cycles machine =
    let irp = Util.compile ~nregs:machine.Machine.Machdesc.md_regs src in
    let r =
      Machine.Vm.run ~config:(Machine.Vm.default_config ~machine ()) irp
    in
    (r.Machine.Vm.r_cycles, r.Machine.Vm.r_output)
  in
  let c10, o10 = cycles Machine.Machdesc.sparc10 in
  let cp, op = cycles Machine.Machdesc.pentium90 in
  Alcotest.(check string) "same output" o10 op;
  Alcotest.(check bool) "models differ" true (c10 <> cp)

(* A VM run leaves its arena to the next run on the same domain.  A run
   that faults after the sweeper poisoned its freed slots, with a dirty
   stack, must leave nothing a later run can observe: cfrac after the
   hazard on this domain equals cfrac first on a fresh domain. *)
let test_arena_reuse_invisible () =
  let built config src =
    (Harness.Build.compile config src).Harness.Build.b_ir
  in
  let cfrac_ir =
    built Harness.Build.Safe
      Workloads.Registry.cfrac.Workloads.Registry.w_source
  in
  let config =
    {
      (Machine.Vm.default_config ~machine:Machine.Machdesc.sparc10 ()) with
      Machine.Vm.vm_heap =
        { Gcheap.Heap.default_config with Gcheap.Heap.gc_threshold = 16384 };
      vm_check_integrity = true;
    }
  in
  let cfrac () = Machine.Vm.run ~config cfrac_ir in
  let fresh = Domain.join (Domain.spawn cfrac) in
  let hazard_config =
    { config with Machine.Vm.vm_gc_schedule = Machine.Schedule.Every 1 }
  in
  (match
     Machine.Vm.run ~config:hazard_config
       (built Harness.Build.Base Stress.Corpus.hazard.Stress.Corpus.t_source)
   with
  | exception Machine.Vm.Fault _ -> ()
  | _ -> Alcotest.fail "the hazard survives an every-1 schedule");
  Alcotest.(check bool) "cfrac collects" true (fresh.Machine.Vm.r_gc_count > 0);
  let reused = cfrac () in
  let open Machine.Vm in
  Alcotest.(check string) "output" fresh.r_output reused.r_output;
  Alcotest.(check int) "exit" fresh.r_exit reused.r_exit;
  Alcotest.(check int) "cycles" fresh.r_cycles reused.r_cycles;
  Alcotest.(check int) "instrs" fresh.r_instrs reused.r_instrs;
  Alcotest.(check int) "gc count" fresh.r_gc_count reused.r_gc_count;
  Alcotest.(check (pair int int)) "live summary"
    (fresh.r_live_objects, fresh.r_live_bytes)
    (reused.r_live_objects, reused.r_live_bytes);
  Alcotest.(check (pair int int)) "pause words"
    (fresh.r_gc_max_pause_words, fresh.r_gc_total_pause_words)
    (reused.r_gc_max_pause_words, reused.r_gc_total_pause_words);
  Alcotest.(check bool) "every result field" true (fresh = reused);
  (* storage handed out on the reused arena reads zero: a large block
     from growth, and bump-allocated nursery objects *)
  let probe =
    built Harness.Build.Safe
      {|int main(void) {
  long i; long dirty = 0;
  char *big = (char *)malloc(65536);
  for (i = 0; i < 65536; i++) dirty = dirty + (big[i] != 0);
  for (i = 0; i < 500; i++) {
    long *p = (long *)malloc(40);
    dirty = dirty + (p[0] != 0) + (p[2] != 0) + (p[4] != 0);
  }
  printf("%ld\n", dirty);
  return 0;
}|}
  in
  List.iter
    (fun mode ->
      let r =
        Machine.Vm.run
          ~config:
            {
              config with
              vm_heap = { config.vm_heap with Gcheap.Heap.mode = mode };
            }
          probe
      in
      Alcotest.(check string)
        ("fresh storage reads zero under " ^ Gcheap.Heap.gc_mode_name mode)
        "0\n" r.r_output)
    [ Gcheap.Heap.Stw; Gcheap.Heap.Gen ]

(* A run whose load raises (a heap limit below the stack block) still
   hands its arena back: the next [Mem.create] on the domain gets the
   128-page buffer the run before it grew, not a fresh 64-page one. *)
let test_failed_load_keeps_arena () =
  let irp = Util.compile "int main(void) { return 0; }" in
  let config = Machine.Vm.default_config () in
  let limited =
    {
      config with
      Machine.Vm.vm_heap =
        { config.Machine.Vm.vm_heap with Gcheap.Heap.heap_limit_words = 4096 };
    }
  in
  let spare_pages () =
    ignore (Machine.Vm.run ~config irp);
    (match Machine.Vm.run ~config:limited irp with
    | exception Gcheap.Heap.Heap_exhausted _ -> ()
    | _ -> Alcotest.fail "a 4096-word limit admits the stack block");
    let m = Gcheap.Mem.create () in
    let pages = Bytes.length m.Gcheap.Mem.data / Gcheap.Mem.page_size in
    Gcheap.Mem.release m;
    pages
  in
  Alcotest.(check int) "spare arena pages" 128
    (Domain.join (Domain.spawn spare_pages))

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "short circuit" `Quick test_logical;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "?: and comma" `Quick test_conditional_expr;
    Alcotest.test_case "char semantics" `Quick test_char_semantics;
    Alcotest.test_case "widths" `Quick test_widths;
    Alcotest.test_case "pointers" `Quick test_pointers;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "strings and arrays" `Quick test_strings_and_arrays;
    Alcotest.test_case "structs and unions" `Quick test_structs;
    Alcotest.test_case "heap structures" `Quick test_heap_structs;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "increments" `Quick test_increments;
    Alcotest.test_case "compound assignment" `Quick test_compound_assign;
    Alcotest.test_case "2-d arrays" `Quick test_multidim_arrays;
    Alcotest.test_case "struct arrays" `Quick test_struct_arrays_fields;
    Alcotest.test_case "global initializers" `Quick test_globals_init;
    Alcotest.test_case "memory builtins" `Quick test_builtin_memory;
    Alcotest.test_case "exit codes" `Quick test_exit_code;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "fault messages on hand-built IR" `Quick
      test_fault_messages;
    Alcotest.test_case "step ceiling is exact" `Quick test_step_ceiling_exact;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "gc during run" `Quick test_gc_during_run;
    Alcotest.test_case "deterministic rand" `Quick test_rand_deterministic;
    Alcotest.test_case "cycle counting" `Quick test_cycles_positive;
    Alcotest.test_case "machine models differ" `Quick test_two_operand_penalty;
    Alcotest.test_case "arena reuse is invisible" `Quick
      test_arena_reuse_invisible;
    Alcotest.test_case "a failed load keeps the spare arena" `Quick
      test_failed_load_keeps_arena;
  ]
