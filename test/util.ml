(* Shared helpers for the compiler-side test suites. *)

let compile ?(mode = Ir.Compile.opt_mode) ?(optimize = true)
    ?(disguise = true) ?(nregs = 32) src =
  let ast, _ = Csyntax.Typecheck.check_source src in
  let irp = Ir.Compile.compile_program ~mode ast in
  let cfg =
    {
      Opt.Pipeline.optimize;
      Opt.Pipeline.disguise_pointers = disguise;
      Opt.Pipeline.nregs;
    }
  in
  ignore (Opt.Pipeline.run_program cfg irp);
  irp

(* Compile and run a plain program; returns its output string. *)
let run ?mode ?optimize ?disguise ?(nregs = 32) ?async_gc ?machine src =
  let irp = compile ?mode ?optimize ?disguise ~nregs src in
  let machine = Option.value ~default:Machine.Machdesc.sparc10 machine in
  let config =
    {
      (Machine.Vm.default_config ~machine ()) with
      Machine.Vm.vm_gc_schedule =
        (match async_gc with
        | Some n -> Machine.Schedule.Every n
        | None -> Machine.Schedule.Auto);
    }
  in
  let r = Machine.Vm.run ~config irp in
  r.Machine.Vm.r_output

(* Build a request's configuration and execute it. *)
let exec ?telemetry ?census (req : Harness.Request.t) =
  let b =
    Harness.Build.compile
      ~options:(Harness.Request.build_options req)
      req.Harness.Request.config req.Harness.Request.source
  in
  Harness.Measure.exec ?telemetry ?census req b

(* Run through the full harness build for a given configuration. *)
let run_built ?machine config src =
  exec (Harness.Request.make ~config ?machine src)

let check_output name src expected =
  Alcotest.(check string) name expected (run src)

(* All five build configurations must agree on the program's output. *)
let check_all_configs_agree ?(expect_checked_fault = false) name src =
  let base = run_built Harness.Build.Base src in
  let base_out =
    match base with
    | Harness.Measure.Ran r -> r.Harness.Measure.o_output
    | o -> Alcotest.failf "%s: baseline failed: %s" name (Harness.Measure.describe o)
  in
  List.iter
    (fun config ->
      match run_built config src with
      | Harness.Measure.Ran r ->
          Alcotest.(check string)
            (Printf.sprintf "%s [%s]" name (Harness.Build.config_name config))
            base_out r.Harness.Measure.o_output
      | Harness.Measure.Detected m ->
          if not (expect_checked_fault && config = Harness.Build.Debug_checked)
          then
            Alcotest.failf "%s [%s] unexpectedly failed: %s" name
              (Harness.Build.config_name config) m
      | o ->
          Alcotest.failf "%s [%s] unexpectedly failed: %s" name
            (Harness.Build.config_name config)
            (Harness.Measure.describe o))
    [
      Harness.Build.Safe;
      Harness.Build.Safe_peephole;
      Harness.Build.Debug;
      Harness.Build.Debug_checked;
    ];
  base_out

(* --- the paper workloads under the collector gates ------------------- *)

(* The collector gates' threshold, in allocated bytes: small enough that
   majors fire mid-run against a live heap, not just at exit. *)
let gate_threshold = 16384

let ran what = function
  | Harness.Measure.Ran r -> r
  | o -> Alcotest.failf "%s: %s" what (Harness.Measure.describe o)

(* A paper workload's safe build on sparc10 at [gate_threshold] with a
   final collection, and the run's metrics snapshot.  Memoized, so the
   nursery and incremental gates share one stop-the-world reference. *)
let gate_run =
  let memo = Hashtbl.create 16 in
  fun ?gc_pause_budget gc_mode (w : Workloads.Registry.workload) ->
    let key = (w.Workloads.Registry.w_name, gc_mode, gc_pause_budget) in
    match Hashtbl.find_opt memo key with
    | Some run -> run
    | None ->
        let metrics = Telemetry.Metrics.create () in
        let r =
          ran w.Workloads.Registry.w_name
            (exec
               ~telemetry:(Telemetry.Sink.make ~metrics ())
               (Harness.Request.make ~config:Harness.Build.Safe ~gc_mode
                  ?gc_pause_budget ~final_collect:true
                  ~gc_threshold:gate_threshold w.Workloads.Registry.w_source))
        in
        let run = (r, Telemetry.Metrics.snapshot metrics) in
        Hashtbl.add memo key run;
        run

let counter snap name =
  match Telemetry.Metrics.find snap name with
  | Some (Telemetry.Metrics.Counter n) -> n
  | _ -> Alcotest.failf "no counter %s" name

(* (observations, p50) of a histogram *)
let histogram_p50 snap name =
  match Telemetry.Metrics.find snap name with
  | Some (Telemetry.Metrics.Histogram { count; buckets; _ }) ->
      (count, Telemetry.Metrics.percentile buckets 0.5)
  | _ -> Alcotest.failf "no histogram %s" name

(* The four paper workloads through one gcsafed instance, 1000 ticks
   apart, under incremental marking with [budget] words as each
   request's pause SLO; returned shut down. *)
let serve_paper_suite ~budget =
  let t = Service.Gcsafed.create Service.Gcsafed.default_config in
  List.iteri
    (fun i (w : Workloads.Registry.workload) ->
      Service.Gcsafed.submit ~arrival:(i * 1000) t
        (Harness.Request.make ~label:w.Workloads.Registry.w_name
           ~config:Harness.Build.Safe ~gc_mode:Gcheap.Heap.Inc
           ~gc_pause_budget:budget ~gc_threshold:gate_threshold
           w.Workloads.Registry.w_source))
    Workloads.Registry.paper_suite;
  Service.Gcsafed.shutdown t;
  Alcotest.(check int)
    (Printf.sprintf "budget %d: no unexpected outcome" budget)
    0 (Service.Gcsafed.report t).Service.Gcsafed.rp_unexpected;
  t

(* Linearity checks.  [per_run ~reps make] is the best of five CPU times
   of [reps] back-to-back runs, divided by [reps]; [make ()] builds one
   run's input outside the timed region and returns the run. *)
let per_run ~reps make =
  let best = ref infinity in
  for _ = 1 to 5 do
    let runs = List.init reps (fun _ -> make ()) in
    let t0 = Sys.time () in
    List.iter (fun run -> run ()) runs;
    best := Float.min !best (Sys.time () -. t0)
  done;
  !best /. float_of_int reps

(* [growth make small large]: the time per run of [make large ()] over
   that of [make small ()], and the two times.  Both sides run as many
   times back to back as the small side needs to take at least 2 ms, so
   one timer tick or scheduling hiccup cannot decide the ratio. *)
let growth make small large =
  let rec calibrate reps =
    let t = per_run ~reps (make small) in
    if t *. float_of_int reps >= 2e-3 || reps >= 4096 then (reps, t)
    else calibrate (2 * reps)
  in
  let reps, t_small = calibrate 1 in
  let t_large = per_run ~reps (make large) in
  (t_large /. t_small, t_small, t_large)
