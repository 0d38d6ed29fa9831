(* Annotator tests: normalization, insertion positions, the paper's
   optimizations (1) and (2), checked-mode expansions, and the loop
   heuristic (optimization 3). *)

open Csyntax
open Gcsafe

let annotate ?(mode = Mode.Safe) src =
  let p = Parser.parse_program src in
  let r = Annotate.run ~opts:(Mode.default mode) p in
  r

let body_of prog fname =
  let f =
    List.find_map
      (function
        | Ast.Gfunc f when f.Ast.f_name = fname -> Some f
        | _ -> None)
      prog.Ast.prog_globals
  in
  Option.get f

let fun_str prog fname =
  Pretty.stmt_to_string (body_of prog fname).Ast.f_body

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

let check_contains name body needle =
  if not (contains body needle) then
    Alcotest.failf "%s: expected %S in:\n%s" name needle body

let check_absent name body needle =
  if contains body needle then
    Alcotest.failf "%s: did not expect %S in:\n%s" name needle body

(* --- the paper's own examples --------------------------------------- *)

let test_paper_f () =
  (* char f(char *x) { return x[1]; }  ==>  *KEEP_LIVE(&x[1], x) *)
  let r = annotate "char f(char *x) { return x[1]; }" in
  let body = fun_str r.Annotate.program "f" in
  check_contains "analysis example" body "*KEEP_LIVE(&x[1], x)"

let test_paper_string_copy () =
  let r =
    annotate
      "void copy(char *s, char *t) { char *p; char *q; p = s; q = t; while (*p++ = *q++) ; }"
  in
  let body = fun_str r.Annotate.program "copy" in
  (* optimization 2's expansion: (tmp = p, p = KEEP_LIVE(tmp + 1, tmp), tmp) *)
  check_contains "post-increment expansion" body "= p, p = KEEP_LIVE(";
  check_contains "tmp base" body "+ 1, __t"

let test_paper_loop_heuristic () =
  let r =
    annotate
      "void copy(char *s, char *t) { char *p; char *q; p = s; q = t; while (*p++ = *q++) ; }"
  in
  let p' = Loop_heuristic.apply r.Annotate.program in
  let body = fun_str p' "copy" in
  (* bases become the slowly-varying s and t *)
  check_contains "base s" body "+ 1, s)";
  check_contains "base t" body "+ 1, t)"

(* --- insertion positions -------------------------------------------- *)

let test_assignment_rhs () =
  let r = annotate "char *g; void f(char *p) { g = p + 4; }" in
  check_contains "rhs wrapped" (fun_str r.Annotate.program "f")
    "g = KEEP_LIVE(p + 4, p)"

let test_function_argument () =
  let r = annotate "void h(char *x); void f(char *p) { h(p + 1); }" in
  check_contains "argument wrapped" (fun_str r.Annotate.program "f")
    "h(KEEP_LIVE(p + 1, p))"

let test_function_result () =
  let r = annotate "char *f(char *p) { return p + 2; }" in
  check_contains "result wrapped" (fun_str r.Annotate.program "f")
    "return KEEP_LIVE(p + 2, p)"

let test_deref_argument () =
  let r = annotate "char f(char *p) { return *(p + 3); }" in
  check_contains "deref argument wrapped" (fun_str r.Annotate.program "f")
    "*KEEP_LIVE(p + 3, p)"

let test_store_address () =
  let r = annotate "void f(char *p) { p[2] = 'x'; }" in
  check_contains "store address wrapped" (fun_str r.Annotate.program "f")
    "*KEEP_LIVE(&p[2], p) = 'x'"

let test_arrow_access () =
  let r =
    annotate
      "struct s { int v; struct s *next; }; int f(struct s *n) { return n->next->v; }"
  in
  let body = fun_str r.Annotate.program "f" in
  (* the inner pointer load is named, then both accesses are wrapped *)
  check_contains "inner load wrapped" body "KEEP_LIVE(&n->next, n)";
  check_contains "outer access wrapped via temp" body "->v, __t"

(* --- no-wrap cases (optimization 1 and non-heap bases) --------------- *)

let test_copy_suppressed () =
  let r = annotate "char *g; void f(char *p) { g = p; }" in
  check_absent "plain copy not wrapped" (fun_str r.Annotate.program "f")
    "KEEP_LIVE"

let test_copy_kept_when_disabled () =
  let p = Parser.parse_program "char *g; void f(char *p) { g = p; }" in
  let opts = { (Mode.default Mode.Safe) with Mode.suppress_copies = false } in
  let r = Annotate.run ~opts p in
  check_contains "naive algorithm wraps copies" (fun_str r.Annotate.program "f")
    "g = KEEP_LIVE(p, p)"

let test_local_array_not_wrapped () =
  let r = annotate "int f(int i) { char buf[8]; buf[i] = 1; return buf[0]; }" in
  check_absent "stack array access" (fun_str r.Annotate.program "f") "KEEP_LIVE"

let test_local_struct_not_wrapped () =
  let r =
    annotate "struct s { int a; int b; }; int f(void) { struct s v; v.a = 1; return v.a + v.b; }"
  in
  check_absent "local struct access" (fun_str r.Annotate.program "f") "KEEP_LIVE"

let test_int_arith_not_wrapped () =
  let r = annotate "int f(int a, int b) { return a * b + (a - b); }" in
  check_absent "integer arithmetic" (fun_str r.Annotate.program "f") "KEEP_LIVE"

let test_deref_of_var_not_wrapped () =
  let r = annotate "char f(char *p) { return *p; }" in
  check_absent "deref of plain variable" (fun_str r.Annotate.program "f")
    "KEEP_LIVE"

let test_alloc_result_not_wrapped () =
  let r = annotate "char *f(void) { return (char *)malloc(10); }" in
  check_absent "allocation results are already opaque"
    (fun_str r.Annotate.program "f") "KEEP_LIVE"

(* --- normalization ---------------------------------------------------- *)

let test_generating_named () =
  let r = annotate "char *g(void); char f(void) { return g()[2]; }" in
  let body = fun_str r.Annotate.program "f" in
  (* the call result must be named before arithmetic: (t = g())[2] *)
  check_contains "call named by temp" body "__t0 = g()";
  check_contains "temp is the base" body ", __t0)"

let test_cond_distribution () =
  let r = annotate "char *f(char *p, char *q, int c) { return c ? p + 1 : q + 2; }" in
  let body = fun_str r.Annotate.program "f" in
  check_contains "then branch" body "KEEP_LIVE(p + 1, p)";
  check_contains "else branch" body "KEEP_LIVE(q + 2, q)"

let test_addr_of_deref_simplified () =
  let r = annotate "char *f(char **pp) { return &**pp; }" in
  (* &*e simplifies to e; *pp is a generating load, left opaque *)
  check_absent "no address-of-deref residue" (fun_str r.Annotate.program "f")
    "&*"

(* --- increments -------------------------------------------------------- *)

let test_pre_incr_safe () =
  let r = annotate "void f(char *p) { ++p; }" in
  check_contains "pre-increment" (fun_str r.Annotate.program "f")
    "p = KEEP_LIVE(p + 1, p)"

let test_post_incr_unused_is_simple () =
  let r = annotate "void f(char *p) { p++; }" in
  let body = fun_str r.Annotate.program "f" in
  check_contains "unused post-increment is the simple form" body
    "p = KEEP_LIVE(p + 1, p)";
  check_absent "no temporary" body "__t"

let test_int_incr_untouched () =
  let r = annotate "void f(int n) { n++; ++n; n += 3; }" in
  check_absent "integer increments" (fun_str r.Annotate.program "f") "KEEP_LIVE"

let test_ptr_field_incr () =
  let r =
    annotate
      "struct s { char *p; }; void f(struct s *v) { v->p += 2; }"
  in
  let body = fun_str r.Annotate.program "f" in
  (* general expansion through the address: t1 = KEEP_LIVE(&v->p, v), ... *)
  check_contains "address temp" body "KEEP_LIVE(&v->p, v)";
  check_contains "value keep" body "+ 2, __t"

(* --- checked mode ------------------------------------------------------ *)

let test_checked_same_obj () =
  let r = annotate ~mode:Mode.Checked "char f(char *x) { return x[1]; }" in
  check_contains "GC_same_obj" (fun_str r.Annotate.program "f")
    "*(char *)GC_same_obj((void *)&x[1], (void *)x)"

let test_checked_pre_incr () =
  let r = annotate ~mode:Mode.Checked "void f(char *p) { ++p; }" in
  check_contains "GC_pre_incr" (fun_str r.Annotate.program "f")
    "GC_pre_incr(&p, 1)"

let test_checked_post_incr () =
  let r = annotate ~mode:Mode.Checked "char f(char *p) { return *p++; }" in
  check_contains "GC_post_incr" (fun_str r.Annotate.program "f")
    "GC_post_incr(&p, 1)"

let test_checked_scaled_delta () =
  let r = annotate ~mode:Mode.Checked "void f(long *p, int n) { p += n; ++p; }" in
  let body = fun_str r.Annotate.program "f" in
  check_contains "scaled += delta" body "GC_pre_incr(&p, n * 8)";
  check_contains "scaled ++ delta" body "GC_pre_incr(&p, 8)"

let test_checked_counts_match_safe () =
  let count mode src =
    (annotate ~mode src).Annotate.keep_live_count
  in
  List.iter
    (fun src ->
      Alcotest.(check int) "same insertion count"
        (count Mode.Safe src) (count Mode.Checked src))
    [
      "char f(char *x) { return x[1]; }";
      "char *g; void f(char *p) { g = p + 4; }";
      "struct s { char *p; }; void f(struct s *v) { v->p += 2; }";
      "struct s { char *p; }; char *g(struct s *v) { char *x; x = v->p++; return x; }";
      "char *f(char **q, int i) { char *x; x = --q[i]; return x; }";
      "void f(char **pp) { (*pp)++; }";
      Workloads.Cord.source;
    ]

(* the names a function body declares that read as temporaries *)
let declared_temps body =
  let acc = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Sdecl d when String.starts_with ~prefix:"__t" d.Ast.d_name ->
          acc := d.Ast.d_name :: !acc
      | _ -> ())
    body;
  List.rev !acc

let test_post_update_expanded_once () =
  (* the old value of a field: one address temporary, one value
     temporary, one KEEP_LIVE each *)
  let r =
    annotate
      "struct s { char *p; }; char *g(struct s *v) { char *x; x = v->p++; return x; }"
  in
  let body = (body_of r.Annotate.program "g").Ast.f_body in
  Alcotest.(check (list string))
    "temporaries" [ "__t0"; "__t1" ] (declared_temps body);
  Alcotest.(check int) "total" 2 r.Annotate.keep_live_count;
  check_contains "expansion" (Pretty.stmt_to_string body)
    "x = (__t0 = KEEP_LIVE(&v->p, v), __t1 = *__t0, *__t0 = KEEP_LIVE(__t1 + 1, __t1), __t1)"

(* What Annotate reports is what it emits: the total is the sum of the
   per-rule counts, and both equal the number of KEEP_LIVE and runtime-call
   nodes in the program; every temporary a body declares is used. *)
let counts_match_emitted src =
  let ast = Parser.parse_program src in
  List.for_all
    (fun (mode, analysis) ->
      let opts = { (Mode.default mode) with Mode.analysis } in
      let r = Annotate.run ~opts ast in
      let by_rule =
        List.fold_left ( + ) 0
          (List.map snd r.Annotate.stats.Annotate.st_by_rule)
      in
      let emitted = ref 0 and used = Hashtbl.create 64 in
      let temps_used =
        List.for_all
          (function
            | Ast.Gfunc f ->
                let body = f.Ast.f_body in
                Hashtbl.reset used;
                ignore
                  (Ast.fold_stmt_exprs
                     (fun () e ->
                       match e.Ast.edesc with
                       | Ast.KeepLive _ | Ast.RuntimeCall _ -> incr emitted
                       | Ast.Var x -> Hashtbl.replace used x ()
                       | _ -> ())
                     () body);
                List.for_all (Hashtbl.mem used) (declared_temps body)
            | Ast.Gvar _ | Ast.Gstruct _ | Ast.Gproto _ -> true)
          r.Annotate.program.Ast.prog_globals
      in
      r.Annotate.keep_live_count = by_rule
      && by_rule = !emitted && temps_used)
    [
      (Mode.Safe, Mode.A_none);
      (Mode.Safe, Mode.A_flow);
      (Mode.Checked, Mode.A_none);
      (Mode.Checked, Mode.A_flow);
    ]

let test_workload_counts_match_emitted () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ ": counts are what is emitted")
        true
        (counts_match_emitted w.Workloads.Registry.w_source))
    Workloads.Registry.paper_suite

let prop_counts_match_emitted =
  QCheck.Test.make ~count:30
    ~name:"random programs: counts are what is emitted"
    Testgen.arbitrary_program counts_match_emitted

(* --- whole-workload sanity --------------------------------------------- *)

let test_workloads_annotate () =
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      List.iter
        (fun mode ->
          let r = annotate ~mode src in
          Alcotest.(check bool)
            (w.Workloads.Registry.w_name ^ " inserts annotations")
            true
            (r.Annotate.keep_live_count > 0);
          (* output must still type-check (run re-checks internally) and
             pretty-print to parseable C *)
          let printed = Pretty.program_to_string r.Annotate.program in
          ignore (Typecheck.check_program (Parser.parse_program printed)))
        [ Mode.Safe; Mode.Checked ])
    Workloads.Registry.all

(* --- analysis-directed suppression ------------------------------------ *)

let annotate_flow src =
  let opts = { (Mode.default Mode.Safe) with Mode.analysis = Mode.A_flow } in
  Annotate.run ~opts (Parser.parse_program src)

(* [*p++] expands to [*(__tN = p, p = KEEP_LIVE(__tN + 1, __tN), __tN)]:
   each temporary copies the heap pointer it is made from, and the
   analysis, which runs before annotation creates it, never saw its name,
   so it must answer "heap" for it. *)
let test_temporaries_are_heap () =
  let no_temp_suppressed name (r : Annotate.result) =
    List.iter
      (fun s ->
        if String.starts_with ~prefix:"__t" s.Annotate.sup_base then
          Alcotest.failf "%s: temporary %s suppressed in %s" name
            s.Annotate.sup_base s.Annotate.sup_func)
      r.Annotate.stats.Annotate.st_suppressions
  in
  let src =
    {|char *f(void) {
  char *q = (char *)malloc(8);
  char *h = q;
  *q++ = 'a';
  *q = 0;
  return h;
}|}
  in
  let r = annotate_flow src in
  check_contains "*q++ on a malloc'd q" (fun_str r.Annotate.program "f")
    "KEEP_LIVE(__t0 + 1, __t0)";
  no_temp_suppressed "*q++ on a malloc'd q" r;
  let gawk = annotate_flow Workloads.Registry.gawk.Workloads.Registry.w_source in
  let gen_input = fun_str gawk.Annotate.program "gen_input" in
  for n = 0 to 5 do
    check_contains "gawk gen_input" gen_input
      (Printf.sprintf "KEEP_LIVE(__t%d + 1, __t%d)" n n)
  done;
  no_temp_suppressed "gawk" gawk

(* --- temporaries: one numbering for both passes -------------------- *)

(* every name a function body declares, each exactly once *)
let check_declared_once name body =
  let seen = Hashtbl.create 8 in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.sdesc with
      | Ast.Sdecl d ->
          if Hashtbl.mem seen d.Ast.d_name then
            Alcotest.failf "%s: %s declared twice in:\n%s" name d.Ast.d_name
              (Pretty.stmt_to_string body);
          Hashtbl.replace seen d.Ast.d_name ()
      | _ -> ())
    body

let test_temps_both_passes () =
  (* Normalize names h()'s result, Annotate expands q's initializer
     (a char * temporary): two temporaries, two names *)
  let src =
    {|char **h(void) { char **a = (char **)malloc(16); a[0] = (char *)malloc(8); a[0][1] = 'x'; return a; }
char f(char *p) { char *q = p++; return h()[0][1] + *q - *q; }
int main(void) { char *s = (char *)malloc(4); printf("%c\n", f(s)); return 0; }|}
  in
  let r = annotate src in
  check_declared_once "f" (body_of r.Annotate.program "f").Ast.f_body;
  ignore (Util.check_all_configs_agree "both passes" src)

let test_temps_one_expression () =
  (* the object's base is Normalize's temporary; the increment's
     temporary must not overwrite it before the KEEP_LIVE *)
  let r =
    annotate
      "char *mk(void); char *f(char *x); char g(char *q, long i) { return *(f(mk()) + (q++ - q + 1) + (i - 100000)); }"
  in
  let body = fun_str r.Annotate.program "g" in
  check_declared_once "g" (body_of r.Annotate.program "g").Ast.f_body;
  check_contains "object named" body "(__t0 = f(mk()))";
  check_contains "increment's own temporary" body "(__t1 = q, q = KEEP_LIVE(__t1 + 1, __t1), __t1)";
  check_contains "object's base" body "(i - 100000), __t0)"

let test_temps_user_local () =
  (* a local the program calls __t0 is not a temporary *)
  let src =
    {|char *f(char *x) { return x + 1; }
int main(void) { char *m = (char *)malloc(8); char *__t0; char *r; __t0 = m; r = f(m) + 3; printf("%ld\n", r - __t0); return 0; }|}
  in
  let r = annotate src in
  check_declared_once "main" (body_of r.Annotate.program "main").Ast.f_body;
  ignore (Util.check_all_configs_agree "user __t0" src);
  (* nor is a global: a temporary of that name would shadow it *)
  ignore
    (Util.check_all_configs_agree "global __t0"
       {|char *__t0;
char *f(char *x) { return x + 1; }
int main(void) { char *m = (char *)malloc(8); char *r; __t0 = m; r = f(m) + 3; printf("%ld\n", r - __t0); return 0; }|})

let test_block_declarators () =
  (* [long a = 1, b = 2;] declares two variables the block can use *)
  let grouped =
    {|int main(void) { long a = 1, b = 2; char *p = (char *)malloc(8), *q = p + 1;
  *q = 'x'; printf("%ld %c\n", a + b, p[1]); return 0; }|}
  and separate =
    {|int main(void) { long a = 1; long b = 2; char *p = (char *)malloc(8); char *q = p + 1;
  *q = 'x'; printf("%ld %c\n", a + b, p[1]); return 0; }|}
  in
  let printed src =
    List.map
      (fun mode ->
        Pretty.program_to_string (annotate ~mode src).Annotate.program)
      [ Mode.Safe; Mode.Checked ]
  in
  Alcotest.(check (list string))
    "annotated alike" (printed separate) (printed grouped);
  Alcotest.(check string)
    "runs alike"
    (Util.check_all_configs_agree "separate" separate)
    (Util.check_all_configs_agree "grouped" grouped)

let test_already_annotated_input () =
  let p =
    Parser.parse_program
      "char *f(char *p) { return KEEP_LIVE(p + 1, p); } int main(void) { return 0; }"
  in
  match Annotate.run p with
  | exception e -> (
      match Harness.Diagnostics.of_exn e with
      | Some (Harness.Diagnostics.Source_error, m) ->
          check_contains "located" m "1:27"
      | _ -> Alcotest.failf "not a source error: %s" (Printexc.to_string e))
  | _ -> Alcotest.fail "already-annotated input was annotated again"

let suite =
  [
    Alcotest.test_case "paper: f(x) = x[1]" `Quick test_paper_f;
    Alcotest.test_case "paper: string copy loop" `Quick test_paper_string_copy;
    Alcotest.test_case "paper: loop heuristic bases" `Quick
      test_paper_loop_heuristic;
    Alcotest.test_case "position: assignment rhs" `Quick test_assignment_rhs;
    Alcotest.test_case "position: function argument" `Quick
      test_function_argument;
    Alcotest.test_case "position: function result" `Quick test_function_result;
    Alcotest.test_case "position: deref argument" `Quick test_deref_argument;
    Alcotest.test_case "position: store address" `Quick test_store_address;
    Alcotest.test_case "position: arrow chains" `Quick test_arrow_access;
    Alcotest.test_case "opt 1: copies suppressed" `Quick test_copy_suppressed;
    Alcotest.test_case "opt 1 disabled wraps copies" `Quick
      test_copy_kept_when_disabled;
    Alcotest.test_case "stack arrays unwrapped" `Quick
      test_local_array_not_wrapped;
    Alcotest.test_case "local structs unwrapped" `Quick
      test_local_struct_not_wrapped;
    Alcotest.test_case "integer arithmetic unwrapped" `Quick
      test_int_arith_not_wrapped;
    Alcotest.test_case "deref of variable unwrapped" `Quick
      test_deref_of_var_not_wrapped;
    Alcotest.test_case "allocation results opaque" `Quick
      test_alloc_result_not_wrapped;
    Alcotest.test_case "normalize: generating named" `Quick
      test_generating_named;
    Alcotest.test_case "normalize: conditional distribution" `Quick
      test_cond_distribution;
    Alcotest.test_case "normalize: &*e simplification" `Quick
      test_addr_of_deref_simplified;
    Alcotest.test_case "incr: pre safe" `Quick test_pre_incr_safe;
    Alcotest.test_case "incr: unused post is simple" `Quick
      test_post_incr_unused_is_simple;
    Alcotest.test_case "incr: integers untouched" `Quick
      test_int_incr_untouched;
    Alcotest.test_case "incr: pointer field" `Quick test_ptr_field_incr;
    Alcotest.test_case "checked: GC_same_obj" `Quick test_checked_same_obj;
    Alcotest.test_case "checked: GC_pre_incr" `Quick test_checked_pre_incr;
    Alcotest.test_case "checked: GC_post_incr" `Quick test_checked_post_incr;
    Alcotest.test_case "checked: scaled deltas" `Quick
      test_checked_scaled_delta;
    Alcotest.test_case "checked == safe insertion counts" `Quick
      test_checked_counts_match_safe;
    Alcotest.test_case "post-update of a field expanded once" `Quick
      test_post_update_expanded_once;
    Alcotest.test_case "workloads: counts are what is emitted" `Quick
      test_workload_counts_match_emitted;
    QCheck_alcotest.to_alcotest prop_counts_match_emitted;
    Alcotest.test_case "workloads annotate cleanly" `Quick
      test_workloads_annotate;
    Alcotest.test_case "annotator temporaries are heap pointers" `Quick
      test_temporaries_are_heap;
    Alcotest.test_case "temporaries: both passes in one function" `Quick
      test_temps_both_passes;
    Alcotest.test_case "temporaries: both in one expression" `Quick
      test_temps_one_expression;
    Alcotest.test_case "temporaries: a user local named __t0" `Quick
      test_temps_user_local;
    Alcotest.test_case "block declarators annotate and run" `Quick
      test_block_declarators;
    Alcotest.test_case "already-annotated input is a source error" `Quick
      test_already_annotated_input;
  ]
