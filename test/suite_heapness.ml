(* Heap-or-not tests: under [--analysis flow], annotations drop as
   [flow-heap] only where heap pointers are provably absent.  A heap base
   may still be dropped as [flow-live], where it roots its object itself. *)

open Gcsafe

let annotate ?(analysis = Mode.A_flow) src =
  let ast = Csyntax.Parser.parse_program src in
  let opts = { (Mode.default Mode.Safe) with Mode.analysis } in
  Annotate.run ~opts ast

let count ?analysis src = (annotate ?analysis src).Annotate.keep_live_count

let printed src =
  Csyntax.Pretty.program_to_string (annotate src).Annotate.program

let suppressed_as reason (r : Annotate.result) =
  List.filter_map
    (fun s ->
      if s.Annotate.sup_reason = reason then Some s.Annotate.sup_base
      else None)
    r.Annotate.stats.Annotate.st_suppressions

(* none of [bases], all of which may hold heap pointers, is suppressed as
   provably non-heap *)
let no_heap_base_dropped src bases =
  List.iter
    (fun b ->
      if List.mem b bases then
        Alcotest.failf "heap base %s suppressed as flow-heap" b)
    (suppressed_as Annotate.S_flow_heap (annotate src))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

let test_stack_walker_clean () =
  let src =
    {|long f(void) {
  char buf[64];
  char *p = buf;
  long n = 0;
  while (p < buf + 63) { *p = 'x'; p++; n++; }
  return n;
}|}
  in
  Alcotest.(check int) "no annotations" 0 (count src);
  Alcotest.(check bool) "without analysis there are some" true
    (count ~analysis:Mode.A_none src > 0);
  Alcotest.(check (list string)) "the cursor is proved non-heap" [ "p" ]
    (suppressed_as Annotate.S_flow_heap (annotate src))

let test_heap_walker_kept () =
  let src =
    {|long f(void) {
  char *buf = (char *)malloc(64);
  char *p = buf;
  long n = 0;
  while (p < buf + 63) { *p = 'y'; p++; n++; }
  return n;
}|}
  in
  no_heap_base_dropped src [ "buf"; "p" ];
  (* the cursor advance is dropped only because p roots its object *)
  Alcotest.(check (list string)) "the advance is rooted by p" [ "p" ]
    (suppressed_as Annotate.S_live (annotate src))

let test_params_are_heapy () =
  (* callers may pass heap pointers *)
  let src = "char f(char *x) { return x[1]; }" in
  Alcotest.(check bool) "parameter access stays wrapped" true
    (contains (printed src) "KEEP_LIVE(&x[1], x)");
  no_heap_base_dropped src [ "x" ]

let test_globals_are_heapy () =
  let src =
    "char *g; char f(void) { char *p = g; return p[3]; }"
  in
  Alcotest.(check bool) "global-derived pointer stays wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "g"; "p" ]

let test_address_taken_is_heapy () =
  (* a variable whose address escapes can be overwritten with anything *)
  let src =
    {|void fill(char **out);
char f(void) {
  char buf[8];
  char *p = buf;
  fill(&p);
  return p[2];
}|}
  in
  Alcotest.(check bool) "address-taken variable stays wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "p" ]

let test_copy_chain_fixpoint () =
  (* p is heapy through its second copy of q, after q is retargeted at
     the heap, though its first copy of q was a stack pointer *)
  let src =
    {|char f(void) {
  char *p;
  char *q;
  char buf[8];
  q = buf;
  p = q;
  q = (char *)malloc(8);
  p = q;           /* p now heapy through the copy */
  return p[1];
}|}
  in
  Alcotest.(check bool) "copy of heapy var stays wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "p"; "q" ]

let test_loads_are_heapy () =
  let src =
    {|struct s { char *ptr; };
char f(struct s *v) {
  char *p = v->ptr;
  return p[1];
}|}
  in
  Alcotest.(check bool) "loaded pointer stays wrapped" true
    (contains (printed src) "p[1], p");
  no_heap_base_dropped src [ "v"; "p" ]

let test_conditional_mix () =
  (* one branch heap, one stack: the variable is heapy *)
  let src =
    {|char f(int c) {
  char buf[8];
  char *p = c ? buf : (char *)malloc(8);
  return p[1];
}|}
  in
  Alcotest.(check bool) "mixed conditional stays wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "p" ]

let test_semantics_preserved () =
  let src =
    {|long stackw(void) {
  char buf[64];
  char *p = buf;
  long n = 0;
  while (p < buf + 63) { *p = 'x'; p++; n++; }
  return n;
}
int main(void) {
  char *h = (char *)malloc(16);
  char *q = h;
  int i;
  for (i = 0; i < 15; i++) *q++ = 'a' + i;
  *q = 0;
  printf("%ld %s\n", stackw(), h);
  return 0;
}|}
  in
  let run program =
    let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode program in
    ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
    let config =
      { (Machine.Vm.default_config ()) with Machine.Vm.vm_gc_schedule = Machine.Schedule.Every 7 }
    in
    (Machine.Vm.run ~config irp).Machine.Vm.r_output
  in
  let base =
    let ast, _ = Csyntax.Typecheck.check_source src in
    let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode ast in
    ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
    (Machine.Vm.run irp).Machine.Vm.r_output
  in
  Alcotest.(check string) "flow-annotated code correct under async GC"
    base
    (run (annotate src).Annotate.program)

let test_mutual_recursion_heap_kept () =
  (* a heap list walked by two mutually recursive functions: the verdict
     must stay heapy across both, through parameters *)
  let src =
    {|struct node { struct node *next; long v; };
long len_a(struct node *p);
long len_b(struct node *p) {
  if (!p) return 0;
  return 1 + len_a(p->next);
}
long len_a(struct node *p) {
  if (!p) return 0;
  return 1 + len_b(p->next);
}|}
  in
  Alcotest.(check int) "both walkers stay annotated"
    (count ~analysis:Mode.A_none src) (count src);
  no_heap_base_dropped src [ "p" ]

let test_mutual_recursion_stack_clean () =
  (* mutually recursive functions whose pointers only ever address their
     own frames: nothing to keep live *)
  let src =
    {|long f(long n);
long g(long n) {
  char buf[4];
  char *p = buf;
  p[1] = 1;
  if (n) return f(n - 1);
  return p[1];
}
long f(long n) {
  char buf[4];
  char *q = buf;
  q[1] = 2;
  if (n) return g(n - 1);
  return q[1];
}|}
  in
  Alcotest.(check int) "no annotations in either function" 0 (count src);
  Alcotest.(check int) "the paper's algorithm wraps all four accesses" 4
    (count ~analysis:Mode.A_none src);
  Alcotest.(check (list string)) "each proved non-heap"
    [ "p"; "p"; "q"; "q" ]
    (suppressed_as Annotate.S_flow_heap (annotate src))

let test_struct_field_heap_pointer () =
  (* a pointer loaded from a struct field may address the heap even when
     the struct itself lives on the stack *)
  let src =
    {|struct s { char *ptr; };
char f(void) {
  struct s v;
  char *p;
  v.ptr = (char *)malloc(8);
  p = v.ptr;
  return p[1];
}|}
  in
  Alcotest.(check bool) "field-loaded pointer stays wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "p" ]

let test_struct_field_stays_conservative () =
  (* field contents are not tracked per-field: even a field holding a
     stack pointer keeps its loads annotated *)
  let src =
    {|struct s { char *ptr; };
char f(void) {
  char buf[8];
  struct s v;
  char *p;
  v.ptr = buf;
  p = v.ptr;
  return p[1];
}|}
  in
  Alcotest.(check bool) "loads through fields stay wrapped" true
    (contains (printed src) "KEEP_LIVE");
  no_heap_base_dropped src [ "p" ]

let test_workload_counts_not_increased () =
  (* the analysis only removes: every site of the paper's algorithm is
     either inserted or suppressed with a reason *)
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let r = annotate src in
      let dropped = List.length r.Annotate.stats.Annotate.st_suppressions in
      Alcotest.(check int)
        (w.Workloads.Registry.w_name ^ " analysis only removes")
        (count ~analysis:Mode.A_none src)
        (r.Annotate.keep_live_count + dropped))
    Workloads.Registry.paper_suite

let suite =
  [
    Alcotest.test_case "stack walker unannotated" `Quick
      test_stack_walker_clean;
    Alcotest.test_case "heap walker: only flow-live drops" `Quick
      test_heap_walker_kept;
    Alcotest.test_case "parameters heapy" `Quick test_params_are_heapy;
    Alcotest.test_case "globals heapy" `Quick test_globals_are_heapy;
    Alcotest.test_case "address-taken heapy" `Quick
      test_address_taken_is_heapy;
    Alcotest.test_case "copy-chain fixpoint" `Quick test_copy_chain_fixpoint;
    Alcotest.test_case "memory loads heapy" `Quick test_loads_are_heapy;
    Alcotest.test_case "conditional mix heapy" `Quick test_conditional_mix;
    Alcotest.test_case "mutual recursion: heap list annotated" `Quick
      test_mutual_recursion_heap_kept;
    Alcotest.test_case "mutual recursion: stack frames clean" `Quick
      test_mutual_recursion_stack_clean;
    Alcotest.test_case "struct field: heap pointer wrapped" `Quick
      test_struct_field_heap_pointer;
    Alcotest.test_case "struct field: conservative" `Quick
      test_struct_field_stays_conservative;
    Alcotest.test_case "semantics under async GC" `Quick
      test_semantics_preserved;
    Alcotest.test_case "workload counts monotone" `Quick
      test_workload_counts_not_increased;
  ]
