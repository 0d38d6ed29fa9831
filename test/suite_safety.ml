(* The headline safety experiments, plus differential qcheck properties
   over randomly generated programs. *)

(* --- the paper's introduction, mechanized ------------------------------- *)

let hazard_src =
  {|long f(long i) {
  char *p = (char *)malloc(10);
  p[5] = 42;
  return p[i - 100000];   /* final use: the displacement gets folded into p */
}
int main(void) {
  long v = f(100005);
  printf("v=%ld\n", v);
  return 0;
}|}

let build ?(annotate = false) ?(disguise = true) src =
  let ast = Csyntax.Parser.parse_program src in
  let ast =
    if annotate then
      (Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast)
        .Gcsafe.Annotate.program
    else begin
      ignore (Csyntax.Typecheck.check_program ast);
      ast
    end
  in
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode ast in
  ignore
    (Opt.Pipeline.run_program
       { Opt.Pipeline.default with Opt.Pipeline.disguise_pointers = disguise }
       irp);
  irp

let run_async ?(every = 1) irp =
  let config =
    { (Machine.Vm.default_config ()) with Machine.Vm.vm_gc_schedule = Machine.Schedule.Every every }
  in
  Machine.Vm.run ~config irp

let test_hazard_fires () =
  (* conventional optimizer + asynchronous collection loses the object *)
  let irp = build hazard_src in
  match run_async irp with
  | exception Machine.Vm.Fault m ->
      Alcotest.(check bool) "reported as GC safety violation" true
        (String.length m > 10 && String.sub m 0 2 = "GC")
  | _ -> Alcotest.fail "expected premature collection"

let test_keep_live_cures () =
  let irp = build ~annotate:true hazard_src in
  let r = run_async irp in
  Alcotest.(check string) "correct result" "v=42\n" r.Machine.Vm.r_output

let test_no_disguise_no_hazard () =
  (* without the disguising optimization the unannotated code happens to be
     safe — "such problems are in fact extremely rare" *)
  let irp = build ~disguise:false hazard_src in
  let r = run_async irp in
  Alcotest.(check string) "runs" "v=42\n" r.Machine.Vm.r_output

let test_hazard_needs_async () =
  (* without a collection in the window, the disguised code also works:
     this is why the problem is "essentially never observed in practice" *)
  let irp = build hazard_src in
  let r = Machine.Vm.run irp in
  Alcotest.(check string) "runs without async GC" "v=42\n"
    r.Machine.Vm.r_output

let test_debug_build_is_safe () =
  (* fully debuggable code is GC-safe without annotation *)
  let ast, _ = Csyntax.Typecheck.check_source hazard_src in
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.debug_mode ast in
  ignore
    (Opt.Pipeline.run_program
       { Opt.Pipeline.default with Opt.Pipeline.optimize = false }
       irp);
  let r = run_async irp in
  Alcotest.(check string) "-g is safe" "v=42\n" r.Machine.Vm.r_output

let test_workloads_safe_under_async_gc () =
  (* annotated workloads survive collections at arbitrary points *)
  List.iter
    (fun (w, every) ->
      let irp = build ~annotate:true w.Workloads.Registry.w_source in
      let r = run_async ~every irp in
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ " completes")
        true
        (String.length r.Machine.Vm.r_output > 0);
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ " collected a lot")
        true (r.Machine.Vm.r_gc_count > 20))
    [
      (Workloads.Registry.cfrac, 2000);
      (Workloads.Registry.gawk, 2000);
      (Workloads.Registry.gs, 2000);
    ]

(* --- differential properties over random programs ----------------------- *)

let digest_of config src =
  match Util.run_built config src with
  | Harness.Measure.Ran r -> r.Harness.Measure.o_output
  | Harness.Measure.Detected m -> "<detected: " ^ m ^ ">"
  | o -> "<" ^ Harness.Measure.describe o ^ ">"

let prop_opt_matches_debug =
  QCheck.Test.make ~count:40 ~name:"random programs: -O == -g"
    Testgen.arbitrary_program
    (fun src ->
      digest_of Harness.Build.Base src = digest_of Harness.Build.Debug src)

let prop_safe_matches_base =
  QCheck.Test.make ~count:40 ~name:"random programs: safe == base"
    Testgen.arbitrary_program
    (fun src ->
      digest_of Harness.Build.Base src = digest_of Harness.Build.Safe src)

let prop_peephole_matches_base =
  QCheck.Test.make ~count:40 ~name:"random programs: safe+peephole == base"
    Testgen.arbitrary_program
    (fun src ->
      digest_of Harness.Build.Base src
      = digest_of Harness.Build.Safe_peephole src)

let prop_checked_accepts_legal =
  QCheck.Test.make ~count:40
    ~name:"random programs: checked mode accepts conforming code"
    Testgen.arbitrary_program
    (fun src ->
      digest_of Harness.Build.Base src
      = digest_of Harness.Build.Debug_checked src)

let prop_safe_survives_async_gc =
  QCheck.Test.make ~count:25
    ~name:"random programs: annotated code is safe under async GC"
    Testgen.arbitrary_program
    (fun src ->
      let base = digest_of Harness.Build.Base src in
      let irp = build ~annotate:true src in
      match run_async ~every:50 irp with
      | r -> r.Machine.Vm.r_output = base
      | exception Machine.Vm.Fault _ -> false)

let build_with_opts opts src =
  let ast = Csyntax.Parser.parse_program src in
  let p = (Gcsafe.Annotate.run ~opts ast).Gcsafe.Annotate.program in
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode p in
  ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
  irp

let prop_calls_only_safe_at_call_sites =
  QCheck.Test.make ~count:25
    ~name:"random programs: calls-only annotation safe under call-site GC"
    Testgen.arbitrary_program
    (fun src ->
      let base = digest_of Harness.Build.Base src in
      let opts =
        { (Gcsafe.Mode.default Gcsafe.Mode.Safe) with
          Gcsafe.Mode.calls_only = true }
      in
      let irp = build_with_opts opts src in
      let config =
        {
          (Machine.Vm.default_config ()) with
          Machine.Vm.vm_gc_schedule = Machine.Schedule.Every 1;
          Machine.Vm.vm_gc_at_calls_only = true;
        }
      in
      match Machine.Vm.run ~config irp with
      | r -> r.Machine.Vm.r_output = base
      | exception Machine.Vm.Fault _ -> false)

(* --- injected collections fire at the schedule's safepoints ------------- *)

(* The safepoint indices at which a run of [irp] injected a collection, as
   its gc-point sink saw them, and the run's step count. *)
let fired ~calls_only schedule irp =
  let points = ref [] in
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_gc_schedule = schedule;
      Machine.Vm.vm_gc_at_calls_only = calls_only;
      Machine.Vm.vm_gc_point_sink = Some (fun i _ -> points := i :: !points);
    }
  in
  let r = Machine.Vm.run ~config irp in
  (List.rev !points, r.Machine.Vm.r_instrs)

(* An every-1 run injects a collection at every safepoint it passes (at
   every call, under calls-only), and collections do not change a safe
   program's steps.  So any other schedule must fire at exactly the
   every-1 points it names: the VM finds its next scheduled point
   ahead of time instead of testing each step. *)
let prop_schedules_fire_at_their_points =
  QCheck.Test.make ~count:100
    ~name:"random programs: schedules fire where every-1 passes"
    QCheck.(
      pair Testgen.arbitrary_program
        (triple (int_range 2 40) (int_range 1 16) bool))
    (fun (src, (k, density, calls_only)) ->
      let irp = build ~annotate:true src in
      let all, steps = fired ~calls_only (Machine.Schedule.Every 1) irp in
      (* a point set over the whole run and a little past its end, drawn
         from the case itself so that a failure replays *)
      let rand = Random.State.make [| k; density; steps |] in
      let at =
        List.filter
          (fun _ -> Random.State.int rand density = 0)
          (List.init (steps + 3) Fun.id)
      in
      let every_k, _ = fired ~calls_only (Machine.Schedule.Every k) irp in
      let at_set, _ = fired ~calls_only (Machine.Schedule.at_list at) irp in
      every_k = List.filter (fun i -> i mod k = 0) all
      && at_set = List.filter (fun i -> List.mem i at) all)

(* Under calls-only, a safepoint is at a call when the last step other
   than a terminator was a call: the returns and jumps that follow one
   change no register the collector could miss. *)
let test_calls_only_points () =
  let open Ir.Instr in
  let func name blocks =
    { fn_name = name; fn_params = []; fn_ret_void = false; fn_blocks = blocks;
      fn_nreg = 3; fn_frame = 0 }
  in
  let block l instrs term = { b_label = l; b_instrs = instrs; b_term = term } in
  let p =
    {
      p_funcs =
        [
          func "f" [ block 0 [] (Ret (Some (Imm 7))) ];
          func "main"
            [
              block 0 [ Call (Some 1, "f", 0) ] (Jmp 1);
              block 1 [ Mov (2, Reg 1) ] (Ret (Some (Reg 2)));
            ];
        ];
      p_statics = Bytes.empty;
      p_relocs = [];
    }
  in
  let points, steps = fired ~calls_only:true (Machine.Schedule.Every 1) p in
  Alcotest.(check int) "steps" 5 steps;
  Alcotest.(check (list int)) "after the call, f's ret and main's jmp"
    [ 1; 2; 3 ] points

let suite =
  [
    Alcotest.test_case "hazard: disguised pointer is collected" `Quick
      test_hazard_fires;
    Alcotest.test_case "hazard: KEEP_LIVE cures it" `Quick
      test_keep_live_cures;
    Alcotest.test_case "hazard: needs the disguising optimization" `Quick
      test_no_disguise_no_hazard;
    Alcotest.test_case "hazard: needs an ill-timed collection" `Quick
      test_hazard_needs_async;
    Alcotest.test_case "debuggable build is safe" `Quick
      test_debug_build_is_safe;
    Alcotest.test_case "annotated workloads survive async GC" `Quick
      test_workloads_safe_under_async_gc;
    QCheck_alcotest.to_alcotest prop_opt_matches_debug;
    QCheck_alcotest.to_alcotest prop_safe_matches_base;
    QCheck_alcotest.to_alcotest prop_peephole_matches_base;
    QCheck_alcotest.to_alcotest prop_checked_accepts_legal;
    QCheck_alcotest.to_alcotest prop_safe_survives_async_gc;
    QCheck_alcotest.to_alcotest prop_calls_only_safe_at_call_sites;
    QCheck_alcotest.to_alcotest prop_schedules_fire_at_their_points;
    Alcotest.test_case "calls-only: a call's safepoint lasts to the next \
                        instruction" `Quick test_calls_only_points;
  ]
