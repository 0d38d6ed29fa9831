(* The lib/analysis dataflow subsystem: CFG construction, the generic
   fixpoint solver, the three clients, and the safety of the annotation
   suppression they drive. *)

open Gcsafe
module A = Analysis
module VS = A.Dataflow.VarSet

(* parse, type-check, normalize: the pipeline state the analyses see *)
let func src name =
  let p = Csyntax.Parser.parse_program src in
  ignore (Csyntax.Typecheck.check_program p);
  let p = Normalize.norm_program p in
  let f =
    List.find_map
      (function
        | Csyntax.Ast.Gfunc f when f.Csyntax.Ast.f_name = name -> Some f
        | _ -> None)
      p.Csyntax.Ast.prog_globals
    |> Option.get
  in
  (p, f)

let global_pred (p : Csyntax.Ast.program) =
  let names =
    List.filter_map
      (function
        | Csyntax.Ast.Gvar d -> Some d.Csyntax.Ast.d_name
        | _ -> None)
      p.Csyntax.Ast.prog_globals
  in
  fun v -> List.mem v names

let summarize src name =
  let p, f = func src name in
  A.Summary.analyze ~global:(global_pred p) f

(* the points assigning to simple variable [x], in program order *)
let assigns_to cfg x =
  Array.to_list (A.Cfg.points cfg)
  |> List.filter (fun pt ->
         List.exists
           (fun (e : Csyntax.Ast.expr) ->
             match e.Csyntax.Ast.edesc with
             | Csyntax.Ast.Assign ({ Csyntax.Ast.edesc = Csyntax.Ast.Var v; _ }, _)
               ->
                 v = x
             | _ -> false)
           (A.Cfg.exprs_of pt))
  |> List.sort (fun a b -> compare a.A.Cfg.pt_id b.A.Cfg.pt_id)

(* --- CFG construction -------------------------------------------------- *)

let test_cfg_well_formed () =
  let _, f =
    func
      {|long f(long n) {
  long s = 0;
  long i;
  for (i = 0; i < n; i++) {
    if (i == 3) continue;
    if (i == 7) break;
    s = s + i;
  }
  while (n--) s++;
  do s--; while (s > 100);
  return s;
}|}
      "f"
  in
  let cfg = A.Cfg.build f in
  let pts = A.Cfg.points cfg in
  Array.iter
    (fun (p : A.Cfg.point) ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "edge %d->%d has matching pred" p.A.Cfg.pt_id s)
            true
            (List.mem p.A.Cfg.pt_id pts.(s).A.Cfg.pt_pred))
        p.A.Cfg.pt_succ)
    pts;
  Alcotest.(check (list int))
    "entry has no predecessors" []
    pts.(A.Cfg.entry cfg).A.Cfg.pt_pred;
  Alcotest.(check (list int))
    "exit has no successors" []
    pts.(A.Cfg.exit_ cfg).A.Cfg.pt_succ;
  (* everything is reachable from entry in this function *)
  let seen = Array.make (Array.length pts) false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go pts.(i).A.Cfg.pt_succ
    end
  in
  go (A.Cfg.entry cfg);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "point %d reachable" i) true r)
    seen;
  (* the three loop heads each have a back edge: some point has >= 2 preds *)
  let joins =
    Array.to_list pts
    |> List.filter (fun (p : A.Cfg.point) ->
           List.length p.A.Cfg.pt_pred >= 2)
  in
  Alcotest.(check bool) "merge points exist" true (List.length joins >= 3)

(* --- the generic solver ------------------------------------------------ *)

module Solve = A.Dataflow.Make (A.Dataflow.SetDomain)

let test_solver_forward_defined () =
  (* forward "may be assigned" over the powerset lattice *)
  let _, f =
    func
      {|long f(long n) {
  long a;
  long b;
  a = 1;
  if (n) b = 2; else b = 3;
  while (n--) a = a + b;
  return a + b;
}|}
      "f"
  in
  let cfg = A.Cfg.build f in
  let transfer pt s =
    List.fold_left (fun s (x, _) -> VS.add x s) s (A.Ptr_live.defs_of pt)
  in
  let r =
    Solve.solve ~dir:A.Dataflow.Forward ~boundary:(VS.singleton "n") ~transfer
      cfg
  in
  let exit_in = r.Solve.df_input.(A.Cfg.exit_ cfg) in
  Alcotest.(check bool) "exit reached" true
    r.Solve.df_reached.(A.Cfg.exit_ cfg);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " defined at exit") true (VS.mem v exit_in))
    [ "a"; "b"; "n" ]

let test_solver_unreachable_stays_bottom () =
  let _, f = func "long f(long n) { return n; n = n + 1; return n; }" "f" in
  let cfg = A.Cfg.build f in
  let transfer pt s =
    List.fold_left (fun s (x, _) -> VS.add x s) s (A.Ptr_live.defs_of pt)
  in
  let r =
    Solve.solve ~dir:A.Dataflow.Forward ~boundary:VS.empty ~transfer cfg
  in
  match assigns_to cfg "n" with
  | [ dead ] ->
      Alcotest.(check bool) "dead point unreached" false
        r.Solve.df_reached.(dead.A.Cfg.pt_id);
      Alcotest.(check bool) "dead point keeps bottom" true
        (VS.is_empty r.Solve.df_output.(dead.A.Cfg.pt_id))
  | l -> Alcotest.failf "expected 1 assignment to n, got %d" (List.length l)

(* --- the escape client ------------------------------------------------- *)

let test_escape_address_taken () =
  let p, f =
    func
      {|void sink(long **pp);
long f(long *p, long n) {
  long arr[4];
  long *q;
  long *r;
  q = &arr[1];
  r = &p[2];
  sink(&q);
  return *q + *r + n;
}|}
      "f"
  in
  let esc = A.Escape.analyze ~global:(global_pred p) f in
  Alcotest.(check bool) "&arr[i] takes arr's address" true
    (A.Escape.address_taken esc "arr");
  Alcotest.(check bool) "&p[i] addresses p's target, not p" false
    (A.Escape.address_taken esc "p");
  Alcotest.(check bool) "&q escapes q" true (A.Escape.escapes esc "q");
  Alcotest.(check bool) "r never escapes" false (A.Escape.escapes esc "r");
  Alcotest.(check bool) "p is a parameter" true (A.Escape.is_param esc "p")

(* --- the flow-sensitive heapness client -------------------------------- *)

let heapflow_src =
  {|char f(void) {
  char buf[8];
  char *p;
  char r;
  p = buf;
  r = p[1];
  p = (char *)malloc(8);
  r = r + p[1];
  return r;
}|}

let test_heapflow_retargeting () =
  (* the case a per-function verdict cannot split: one cursor, stack
     then heap *)
  let sum = summarize heapflow_src "f" in
  let cfg = A.Heapflow.cfg (A.Summary.heapflow sum) in
  match assigns_to cfg "r" with
  | [ stack_load; heap_load ] ->
      Alcotest.(check bool) "not heapy while walking the local buffer" false
        (A.Summary.may_be_heap sum (Some stack_load) "p");
      Alcotest.(check bool) "heapy after retargeting at malloc" true
        (A.Summary.may_be_heap sum (Some heap_load) "p")
  | l -> Alcotest.failf "expected 2 assignments to r, got %d" (List.length l)

let test_heapflow_conservative_defaults () =
  let sum = summarize heapflow_src "f" in
  Alcotest.(check bool) "unknown point is heapy" true
    (A.Summary.may_be_heap sum None "p");
  Alcotest.(check bool) "unknown variable is heapy" true
    (A.Summary.may_be_heap sum None "not_a_var")

(* --- the liveness client ----------------------------------------------- *)

let test_ptr_live_across_deref () =
  let _, f =
    func
      "long f(long *p, long n) { long s; s = *p; p = p + 1; s = s + *p; return s; }"
      "f"
  in
  let cfg = A.Cfg.build f in
  let live = A.Ptr_live.analyze ~cfg f in
  match assigns_to cfg "s" with
  | [ first; second ] ->
      Alcotest.(check bool) "p live across the first load" true
        (VS.mem "p" (A.Ptr_live.live_out live first));
      Alcotest.(check bool) "p dead after its last load" false
        (VS.mem "p" (A.Ptr_live.live_out live second))
  | l -> Alcotest.failf "expected 2 assignments to s, got %d" (List.length l)

let test_live_across_requires_self_advance () =
  let src =
    {|char *g;
char f(char *p) {
  char c;
  c = *p;
  p = g;
  c = c + *p;
  return c;
}|}
  in
  let sum = summarize src "f" in
  let cfg = A.Heapflow.cfg (A.Summary.heapflow sum) in
  match assigns_to cfg "p" with
  | [ retarget ] ->
      (* [p = g] is not an advance within p's object: were a KEEP_LIVE
         site on this statement suppressed, nothing would root the old
         object while the statement still evaluates *)
      Alcotest.(check bool) "retargeting definition blocks live_across"
        false
        (A.Summary.live_across sum (Some retarget) "p")
  | l -> Alcotest.failf "expected 1 assignment to p, got %d" (List.length l)

(* --- suppression through Annotate -------------------------------------- *)

let annotate_with analysis src =
  let ast = Csyntax.Parser.parse_program src in
  let opts = { (Mode.default Mode.Safe) with Mode.analysis } in
  Annotate.run ~opts ast

let reason_count r reason =
  List.assoc reason r.Annotate.stats.Annotate.st_by_reason

let printed r = Csyntax.Pretty.program_to_string r.Annotate.program

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i =
    i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1))
  in
  ln = 0 || loop 0

let test_suppression_flow_heap () =
  let r = annotate_with Mode.A_flow heapflow_src in
  Alcotest.(check bool) "the stack-phase load is suppressed" true
    (reason_count r Annotate.S_flow_heap >= 1);
  Alcotest.(check bool) "the heap-phase load stays wrapped" true
    (contains (printed r) "KEEP_LIVE");
  let none = annotate_with Mode.A_none heapflow_src in
  Alcotest.(check bool) "flow inserts strictly less" true
    (r.Annotate.keep_live_count < none.Annotate.keep_live_count)

let test_suppression_live_stores () =
  (* initializing stores through a pointer that stays live: the pointer
     roots its object itself *)
  let src =
    {|struct s { long a; long b; };
long f(void) {
  struct s *c = (struct s *)malloc(16);
  c->a = 1;
  c->b = 2;
  return c->a + c->b;
}|}
  in
  let r = annotate_with Mode.A_flow src in
  Alcotest.(check bool) "the initializing stores are suppressed" true
    (reason_count r Annotate.S_live >= 2);
  List.iter
    (fun s ->
      Alcotest.(check string) "suppressed base is c" "c"
        s.Annotate.sup_base)
    r.Annotate.stats.Annotate.st_suppressions

let test_suppression_self_advance () =
  (* the cursor roots its object itself: live across the advance, and
     the advance only moves it within the object *)
  let src =
    {|long f(char *p, long n) {
  long s = 0;
  while (n--) {
    s = s + *p;
    p++;
  }
  return s;
}|}
  in
  let r = annotate_with Mode.A_flow src in
  let none = annotate_with Mode.A_none src in
  Alcotest.(check bool) "self-advancing cursor suppressed" true
    (reason_count r Annotate.S_live >= 1);
  Alcotest.(check bool) "the paper's algorithm annotates it" true
    (none.Annotate.keep_live_count > r.Annotate.keep_live_count)

let test_escape_blocks_suppression () =
  (* same store pattern as above, but &c escapes: the callee may
     retarget c through memory, so every site stays wrapped *)
  let src =
    {|struct s { long a; long b; };
void taint(struct s **pc);
long f(void) {
  struct s *c = (struct s *)malloc(16);
  taint(&c);
  c->a = 1;
  c->b = 2;
  return c->a + c->b;
}|}
  in
  let r = annotate_with Mode.A_flow src in
  let none = annotate_with Mode.A_none src in
  Alcotest.(check int) "no liveness suppression on escaping c" 0
    (reason_count r Annotate.S_live);
  Alcotest.(check int) "every site stays wrapped"
    none.Annotate.keep_live_count r.Annotate.keep_live_count;
  Alcotest.(check bool) "the stores stay wrapped" true
    (contains (printed r) "KEEP_LIVE(&c->a, c)")

(* --- the ablation on the paper's workloads ----------------------------- *)

let test_workload_counts_reduced () =
  let reduced =
    List.filter
      (fun w ->
        let src = w.Workloads.Registry.w_source in
        let flow = (annotate_with Mode.A_flow src).Annotate.keep_live_count in
        let none = (annotate_with Mode.A_none src).Annotate.keep_live_count in
        flow < none)
      Workloads.Registry.paper_suite
  in
  Alcotest.(check bool)
    "flow strictly reduces annotations on at least 3 of 4 workloads" true
    (List.length reduced >= 3)

let cycles = function
  | Harness.Measure.Ran r -> r.Harness.Measure.o_cycles
  | o -> Alcotest.failf "workload failed: %s" (Harness.Measure.describe o)

let test_workload_cycles_reduced () =
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let run analysis =
        let req =
          Harness.Request.make ~config:Harness.Build.Safe ~analysis src
        in
        let b =
          Harness.Build.compile
            ~options:(Harness.Request.build_options req)
            Harness.Build.Safe src
        in
        cycles (Harness.Measure.exec req b)
      in
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ ": -O safe cheaper with analysis")
        true
        (run Mode.A_flow < run Mode.A_none))
    [ Workloads.Registry.cordtest; Workloads.Registry.cfrac ]

(* --- qcheck: analysis-pruned == fully annotated under injected GC ------ *)

let build_safe analysis src =
  Harness.Build.compile
    ~options:{ Harness.Build.default with Harness.Build.analysis }
    Harness.Build.Safe src

let observe b schedule =
  Harness.Measure.exec
    (Harness.Request.make ~schedule ~check_integrity:true ~final_collect:true
       "")
    b

let corrupted = function Harness.Measure.Corrupted _ -> true | _ -> false

(* every single-collection-point schedule when the program is small,
   evenly sampled single points otherwise, plus dense periodic and
   at-allocation schedules *)
let schedules_for instrs =
  let singles =
    if instrs <= 120 then List.init instrs (fun k -> [ k + 1 ])
    else
      List.init 40 (fun k -> [ 1 + (k * instrs / 40) ])
  in
  List.map Machine.Schedule.at_list singles
  @ [ Machine.Schedule.Every 1; Machine.Schedule.Every 7;
      Machine.Schedule.At_allocs ]

let prop_analysis_differential =
  QCheck.Test.make ~count:12
    ~name:"random programs: analysis-pruned == fully annotated, all schedules"
    Testgen.arbitrary_program
    (fun src ->
      let bn = build_safe Mode.A_none src in
      let bf = build_safe Mode.A_flow src in
      let instrs =
        match observe bn Machine.Schedule.Auto with
        | Harness.Measure.Ran r -> r.Harness.Measure.o_instrs
        | _ -> 0
      in
      List.for_all
        (fun schedule ->
          let on = observe bn schedule in
          let of_ = observe bf schedule in
          (* no premature reclamation in either build, and behaviourally
             identical observations *)
          (not (corrupted on))
          && (not (corrupted of_))
          && Harness.Differ.diff ~reference:on of_ = None)
        (schedules_for instrs))

let prop_flow_never_inserts_more =
  QCheck.Test.make ~count:50
    ~name:"random programs: flow analysis only removes annotations"
    Testgen.arbitrary_program
    (fun src ->
      (annotate_with Mode.A_flow src).Annotate.keep_live_count
      <= (annotate_with Mode.A_none src).Annotate.keep_live_count)

let suite =
  [
    Alcotest.test_case "cfg: well-formed, all constructs" `Quick
      test_cfg_well_formed;
    Alcotest.test_case "solver: forward fixpoint" `Quick
      test_solver_forward_defined;
    Alcotest.test_case "solver: unreachable stays bottom" `Quick
      test_solver_unreachable_stays_bottom;
    Alcotest.test_case "escape: address-taken walk" `Quick
      test_escape_address_taken;
    Alcotest.test_case "heapflow: stack-then-heap retargeting" `Quick
      test_heapflow_retargeting;
    Alcotest.test_case "heapflow: conservative defaults" `Quick
      test_heapflow_conservative_defaults;
    Alcotest.test_case "liveness: live across a dereference" `Quick
      test_ptr_live_across_deref;
    Alcotest.test_case "liveness: retargeting blocks live_across" `Quick
      test_live_across_requires_self_advance;
    Alcotest.test_case "suppression: flow-heap reason" `Quick
      test_suppression_flow_heap;
    Alcotest.test_case "suppression: live base roots its stores" `Quick
      test_suppression_live_stores;
    Alcotest.test_case "suppression: self-advancing cursor" `Quick
      test_suppression_self_advance;
    Alcotest.test_case "suppression: escape blocks it" `Quick
      test_escape_blocks_suppression;
    Alcotest.test_case "workloads: annotation counts reduced" `Quick
      test_workload_counts_reduced;
    Alcotest.test_case "workloads: safe cycles reduced" `Quick
      test_workload_cycles_reduced;
    QCheck_alcotest.to_alcotest prop_analysis_differential;
    QCheck_alcotest.to_alcotest prop_flow_never_inserts_more;
  ]
