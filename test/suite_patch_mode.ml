(* Patch-mode emission tests: the annotated program as edits to the
   original text. *)

open Csyntax
open Gcsafe

(* both emitters' output from one build, as [gcsafec annotate] makes
   them: the pretty-printed program and the patched source *)
let emitters ?(opts = Mode.default Mode.Safe) ?(heuristic = false) src =
  let original = Parser.parse_program src in
  let r = Annotate.run ~opts original in
  let program =
    if heuristic && opts.Mode.mode = Mode.Safe then
      Loop_heuristic.apply r.Annotate.program
    else r.Annotate.program
  in
  (Pretty.program_to_string program, Patch_mode.emit ~source:src ~original program)

let patch ?(mode = Mode.Safe) src = snd (emitters ~opts:(Mode.default mode) src)

(* Safe/Checked x none/flow, each plain and with calls-only,
   check-base-stores and the loop heuristic on *)
let variants =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun analysis ->
          let opts = { (Mode.default mode) with Mode.analysis } in
          [
            (opts, false);
            ({ opts with Mode.calls_only = true; check_base_stores = true }, true);
          ])
        [ Mode.A_none; Mode.A_flow ])
    [ Mode.Safe; Mode.Checked ]

let variant_name (opts, heuristic) =
  Printf.sprintf "%s/%s%s" (Mode.to_string opts.Mode.mode)
    (Mode.analysis_to_string opts.Mode.analysis)
    (if heuristic then "+opts" else "")

(* the patched source re-parses to the program the AST emitter prints *)
let check_same_program name src =
  List.iter
    (fun ((opts, heuristic) as v) ->
      let printed, patched = emitters ~opts ~heuristic src in
      Alcotest.(check string)
        (name ^ " " ^ variant_name v)
        printed
        (Pretty.program_to_string (Parser.parse_program patched)))
    variants

let prop_same_program =
  QCheck.Test.make ~count:20 ~name:"emitters print the same program"
    Testgen.arbitrary_program (fun src ->
      check_same_program "generated" src;
      true)

(* the paper's workloads patch to text that parses to Annotate's program *)
let test_workload_patches_parse () =
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      check_same_program w.Workloads.Registry.w_name w.Workloads.Registry.w_source)
    Workloads.Registry.paper_suite

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

let positional_src =
  {|/* leading comment */
struct node { struct node *next; long v; };

long sum(struct node *n) {
  long acc = 0;   /* trailing comment */
  while (n) {
    acc += n->v;
    n = n->next;
  }
  return acc;
}

char *advance(char *p, long k) { return p + k; }
char get2(char *s) { return s[2]; }

int main(void) {
  struct node *a = (struct node *)malloc(sizeof(struct node));
  struct node *b = (struct node *)malloc(sizeof(struct node));
  char *buf = (char *)malloc(16);
  char *cur = buf;
  char *was = cur++;
  a->v = 5; a->next = b;
  b->v = 7; b->next = 0;
  buf[3] = 'q';
  printf("%ld %c %c %ld\n", sum(a), get2(advance(buf, 1)), *advance(buf, 3),
         cur - was);
  return 0;
}|}

let run_source src =
  let prog, _ = Typecheck.check_source src in
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode prog in
  ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
  (Machine.Vm.run irp).Machine.Vm.r_output

let test_output_compiles_and_agrees () =
  let base = run_source positional_src in
  List.iter
    (fun (mode, marker) ->
      let out = patch ~mode positional_src in
      Alcotest.(check bool)
        (Mode.to_string mode ^ " annotated")
        true (contains out marker);
      Alcotest.(check string)
        (Mode.to_string mode ^ " patched output behaves identically")
        base (run_source out))
    [ (Mode.Safe, "KEEP_LIVE("); (Mode.Checked, "GC_same_obj(") ]

let test_comments_survive () =
  let out = patch positional_src in
  Alcotest.(check bool) "leading comment kept" true
    (contains out "/* leading comment */");
  Alcotest.(check bool) "trailing comment kept" true
    (contains out "/* trailing comment */")

let test_under_parentheses () =
  (* spans exclude redundant outer parens; an initializer's comma
     expansion keeps its own *)
  let src = "char *f(char *p) { char *q = p++; return (p + 1); }" in
  let out = patch src in
  Alcotest.(check bool) "replaced inside parens" true
    (contains out "(KEEP_LIVE(p + 1, p))");
  Alcotest.(check bool) "temporary declared after the brace" true
    (contains out "{ char *__t0; char *q = (__t0 = p, ");
  ignore (Typecheck.check_source out)

let test_unlocated_change_rejected () =
  let src = "long f(long a) { return a; }" in
  let original = Parser.parse_program src in
  List.iter
    (function
      | Ast.Gfunc f ->
          Ast.iter_stmts
            (fun s ->
              match s.Ast.sdesc with
              | Ast.Sreturn (Some e) -> e.Ast.eend <- -1
              | _ -> ())
            f.Ast.f_body
      | _ -> ())
    original.Ast.prog_globals;
  let changed = Parser.parse_program "long f(long a) { return a + 1; }" in
  match Patch_mode.emit ~source:src ~original changed with
  | exception Invalid_argument _ -> ()
  | out -> Alcotest.failf "a change without a span was emitted: %s" out

let suite =
  [
    Alcotest.test_case "patched output runs identically" `Quick
      test_output_compiles_and_agrees;
    Alcotest.test_case "comments survive" `Quick test_comments_survive;
    Alcotest.test_case "parenthesized spans" `Quick test_under_parentheses;
    Alcotest.test_case "workload patches parse" `Quick
      test_workload_patches_parse;
    Alcotest.test_case "unlocated change rejected" `Quick
      test_unlocated_change_rejected;
    QCheck_alcotest.to_alcotest prop_same_program;
  ]
