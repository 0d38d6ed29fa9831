(* Optimization (4) (collections only at call sites) and the Extensions
   section (base-pointers-only store discipline, root-only interior
   pointers). *)

open Gcsafe

let annotate ~opts src =
  let ast = Csyntax.Parser.parse_program src in
  (Annotate.run ~opts ast).Annotate.program

let compile ?(mode = Ir.Compile.opt_mode) ?(optimize = true) program =
  let irp = Ir.Compile.compile_program ~mode program in
  ignore
    (Opt.Pipeline.run_program
       { Opt.Pipeline.default with Opt.Pipeline.optimize }
       irp);
  irp

let counts src =
  let count opts =
    let ast = Csyntax.Parser.parse_program src in
    (Annotate.run ~opts ast).Annotate.keep_live_count
  in
  let base = Mode.default Mode.Safe in
  (count base, count { base with Mode.calls_only = true })

(* --- optimization (4) ------------------------------------------------- *)

let test_calls_only_reduces () =
  (* "the number of KEEP_LIVE invocations could often be reduced
     dramatically" *)
  List.iter
    (fun w ->
      let full, reduced = counts w.Workloads.Registry.w_source in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d -> %d" w.Workloads.Registry.w_name full reduced)
        true
        (reduced < full))
    Workloads.Registry.paper_suite

let test_calls_only_keeps_call_statements () =
  (* a statement containing a call keeps its annotations *)
  let src =
    "char *g(char *x); char *f(char *p) { return g(p + 1); }" in
  let opts = { (Mode.default Mode.Safe) with Mode.calls_only = true } in
  let p = annotate ~opts src in
  let printed = Csyntax.Pretty.program_to_string p in
  Alcotest.(check bool) "call argument still wrapped" true
    (let needle = "KEEP_LIVE(p + 1, p)" in
     let rec find i =
       i + String.length needle <= String.length printed
       && (String.sub printed i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_calls_only_safe_under_call_site_gc () =
  (* the reduced annotation is safe when collections happen only at calls:
     the hazard program, annotated with calls_only, racing a call-site
     collector with the disguising optimizer on *)
  let src =
    {|long f(long i) {
  char *p = (char *)malloc(10);
  p[5] = 42;
  return p[i - 100000];
}
int main(void) { printf("v=%ld\n", f(100005)); return 0; }|}
  in
  let opts = { (Mode.default Mode.Safe) with Mode.calls_only = true } in
  let irp = compile (annotate ~opts src) in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_gc_schedule = Machine.Schedule.Every 1;
      Machine.Vm.vm_gc_at_calls_only = true;
    }
  in
  let r = Machine.Vm.run ~config irp in
  Alcotest.(check string) "safe" "v=42\n" r.Machine.Vm.r_output

let test_calls_only_needs_its_assumption () =
  (* the same build is NOT safe under a fully asynchronous collector —
     that is exactly why the paper states it as a conditional optimization.
     The statement contains a call (malloc), so f's annotations remain and
     the hazard window stays covered; to expose the assumption, use a
     call-free arithmetic statement whose annotation was dropped. *)
  let src =
    {|long g;
long f(char *p, long i) {
  g = 0;
  return p[i - 100000];   /* call-free statement: annotation dropped */
}
int main(void) {
  char *p = (char *)malloc(10);
  p[5] = 42;
  printf("v=%ld\n", f(p, 100005));
  return 0;
}|}
  in
  (* note: p stays live in main's frame, so the object itself survives; the
     property we check here is just that annotations were dropped *)
  let full, reduced = counts src in
  Alcotest.(check bool) "dropped" true (reduced < full)

(* --- Extensions: base-only stores -------------------------------------- *)

let interior_store_src =
  {|struct holder { char *p; };
int main(void) {
  struct holder *h = (struct holder *)malloc(sizeof(struct holder));
  char *buf = (char *)malloc(32);
  h->p = buf + 4;    /* interior pointer escapes to the heap */
  printf("%c\n", h->p[-4] + 'x');
  return 0;
}|}

let base_store_src =
  {|struct holder { char *p; };
int main(void) {
  struct holder *h = (struct holder *)malloc(sizeof(struct holder));
  char *buf = (char *)malloc(32);
  h->p = buf;        /* base pointer: conforms to the discipline */
  printf("%c\n", h->p[0] + 'x');
  return 0;
}|}

let run_checked_base_stores src =
  let opts =
    { (Mode.default Mode.Checked) with Mode.check_base_stores = true }
  in
  let irp =
    compile ~mode:Ir.Compile.debug_mode ~optimize:false (annotate ~opts src)
  in
  match Machine.Vm.run irp with
  | r -> Ok r.Machine.Vm.r_output
  | exception Machine.Vm.Fault m -> Error m

let test_interior_store_detected () =
  match run_checked_base_stores interior_store_src with
  | Error m ->
      Alcotest.(check bool) "names GC_check_base" true
        (String.length m > 13 && String.sub m 0 13 = "GC_check_base")
  | Ok _ -> Alcotest.fail "interior store must be detected"

let test_base_store_clean () =
  match run_checked_base_stores base_store_src with
  | Ok out -> Alcotest.(check string) "runs" "x\n" out
  | Error m -> Alcotest.failf "flagged conforming program: %s" m

let test_local_stores_exempt () =
  (* interior pointers in local variables are fine: locals are roots *)
  let src =
    {|int main(void) {
  char *buf = (char *)malloc(32);
  char *q = buf + 7;
  buf[7] = 'y';
  printf("%c\n", *q);
  return 0;
}|}
  in
  match run_checked_base_stores src with
  | Ok out -> Alcotest.(check string) "runs" "y\n" out
  | Error m -> Alcotest.failf "flagged local interior pointer: %s" m

(* --- the Debugging section's "additional check": whole-struct extents --- *)

let test_struct_overrun_detected () =
  (* "It is currently still possible to reference or overwrite other
     memory if C structures are accessed as a whole ... This could be
     remedied at minimal cost with the insertion of an additional check."
     — the check is implemented; the classic cast-to-bigger-struct bug is
     caught at the whole-struct store. *)
  let src =
    {|struct small { long a; };
struct bigg { long a; long b; long c; long d; long e; long f; long g; long h; long i2; long j; };
int main(void) {
  struct small *s = (struct small *)malloc(sizeof(struct small));
  struct bigg v;
  v.a = 1;
  *(struct bigg *)s = v;
  return 0;
}|}
  in
  let opts = Mode.default Mode.Checked in
  let irp =
    compile ~mode:Ir.Compile.debug_mode ~optimize:false (annotate ~opts src)
  in
  match Machine.Vm.run irp with
  | exception Machine.Vm.Fault m ->
      Alcotest.(check bool) "GC_check_range fires" true
        (String.length m > 14 && String.sub m 0 14 = "GC_check_range")
  | _ -> Alcotest.fail "structure overrun must be detected"

let test_struct_copy_clean () =
  let src =
    {|struct pair { long a; long b; };
int main(void) {
  struct pair *x = (struct pair *)malloc(sizeof(struct pair));
  struct pair *y = (struct pair *)malloc(sizeof(struct pair));
  x->a = 1; x->b = 2;
  *y = *x;
  printf("%ld %ld
", y->a, y->b);
  return 0;
}|}
  in
  let opts = Mode.default Mode.Checked in
  let irp =
    compile ~mode:Ir.Compile.debug_mode ~optimize:false (annotate ~opts src)
  in
  let r = Machine.Vm.run irp in
  Alcotest.(check string) "conforming copy passes" "1 2
"
    r.Machine.Vm.r_output

let test_atomic_allocation_from_c () =
  (* GC_malloc_atomic objects are not scanned: a pointer stored in one does
     not keep its target alive *)
  (* the stores happen in a helper whose frame (registers included) is
     gone by the time the collection runs, so the only references live in
     the heap: one inside a scanned object, one inside an atomic object *)
  let src =
    {|void setup(long *hidden, long *keeper) {
  long *target = (long *)malloc(16);
  long *held = (long *)malloc(16);
  *hidden = (long)target;
  *keeper = (long)held;
}
int main(void) {
  long *hidden = (long *)GC_malloc_atomic(16);
  long *keeper = (long *)malloc(16);
  setup(hidden, keeper);
  GC_collect();
  printf("%d %d
", GC_base((void *)*keeper) != 0,
         GC_base((void *)*hidden) == 0);
  return 0;
}|}
  in
  let ast, _ = Csyntax.Typecheck.check_source src in
  let irp = compile ast in
  let r = Machine.Vm.run irp in
  Alcotest.(check string) "atomic contents not traced" "1 1
"
    r.Machine.Vm.r_output

(* --- Extensions: the root-only-interior collector end to end ----------- *)

let test_gs_under_root_only_collector () =
  (* gs stores only base pointers into the heap (prepended headers), so it
     runs correctly even when the collector honours interior pointers from
     the roots only *)
  let ast = Csyntax.Parser.parse_program Workloads.Gs.source in
  ignore (Csyntax.Typecheck.check_program ast);
  let irp = compile ast in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_heap =
        {
          Gcheap.Heap.default_config with
          Gcheap.Heap.all_interior = false;
          gc_threshold = 32 * 1024;
        };
    }
  in
  let r = Machine.Vm.run ~config irp in
  Alcotest.(check bool) "pages rendered" true
    (String.length r.Machine.Vm.r_output > 0 && r.Machine.Vm.r_gc_count > 0)

let test_discipline_verified_by_checker () =
  (* and the dynamic checker confirms gs's store discipline *)
  match run_checked_base_stores Workloads.Gs.source with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "gs violated the discipline: %s" m

let suite =
  [
    Alcotest.test_case "opt 4 reduces annotations" `Quick
      test_calls_only_reduces;
    Alcotest.test_case "opt 4 keeps call statements" `Quick
      test_calls_only_keeps_call_statements;
    Alcotest.test_case "opt 4 safe under call-site GC" `Quick
      test_calls_only_safe_under_call_site_gc;
    Alcotest.test_case "opt 4 drops call-free annotations" `Quick
      test_calls_only_needs_its_assumption;
    Alcotest.test_case "extensions: interior store detected" `Quick
      test_interior_store_detected;
    Alcotest.test_case "extensions: base store clean" `Quick
      test_base_store_clean;
    Alcotest.test_case "extensions: locals exempt" `Quick
      test_local_stores_exempt;
    Alcotest.test_case "struct overrun detected" `Quick
      test_struct_overrun_detected;
    Alcotest.test_case "struct copy clean" `Quick test_struct_copy_clean;
    Alcotest.test_case "atomic allocation from C" `Quick
      test_atomic_allocation_from_c;
    Alcotest.test_case "extensions: gs on root-only collector" `Quick
      test_gs_under_root_only_collector;
    Alcotest.test_case "extensions: gs store discipline verified" `Quick
      test_discipline_verified_by_checker;
  ]
