(* Exec-subsystem tests: the Domain worker pool, the content-addressed
   build cache, the Diagnostics classification, and the contract the
   whole PR rests on — a parallel stress run is report-identical to the
   serial scan. *)

module Pool = Exec.Pool
module Cache = Exec.Cache
module Build = Harness.Build
module Diagnostics = Harness.Diagnostics

(* --- pool: every task runs exactly once, results in input order ------- *)

let test_pool_once_each () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 200 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      let results =
        Pool.map pool
          (fun i ->
            Atomic.incr counts.(i);
            i * i)
          (List.init n Fun.id)
      in
      Alcotest.(check (list int))
        "results ordered by input index"
        (List.init n (fun i -> i * i))
        results;
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "task %d ran exactly once" i)
            1 (Atomic.get c))
        counts)

let test_pool_serial_inline () =
  (* jobs=1 is the reference serial path: no domains, the caller claims
     every index in input order *)
  let seen = ref [] in
  let results =
    Pool.map Pool.serial
      (fun i ->
        seen := i :: !seen;
        i + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] results;
  Alcotest.(check (list int)) "executed in input order" [ 3; 2; 1 ] !seen

let test_pool_reusable () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let results = Pool.map pool (fun i -> i * round) [ 1; 2; 3; 4 ] in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          [ round; 2 * round; 3 * round; 4 * round ]
          results
      done)

(* regression: the submitter claims work from the first index on.  A
   task on the worker domain waits until a task has completed on the
   submitting domain, and the submitter's tasks wait until a worker task
   has started, so the worker is sure to get one.  A submitter that
   starts on tasks only after handing every task out (behind a full
   bounded queue, say) leaves the worker waiting out the bound. *)
let test_pool_submitter_claims_early () =
  let submitter = Domain.self () in
  let worker_started = Atomic.make false in
  let submitter_done = Atomic.make false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let await flag =
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  let runs =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun _ ->
            if Domain.self () = submitter then begin
              ignore (await worker_started);
              Atomic.set submitter_done true;
              `Submitter
            end
            else begin
              Atomic.set worker_started true;
              `Worker (await submitter_done)
            end)
          (List.init 8 Fun.id))
  in
  let on_worker =
    List.filter_map
      (function `Worker saw -> Some saw | `Submitter -> None)
      runs
  in
  Alcotest.(check bool) "a task ran on the worker" true (on_worker <> []);
  Alcotest.(check bool)
    "every worker task saw a submitter task complete" true
    (List.for_all Fun.id on_worker)

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) "smallest failing index wins" 2 i)

(* --- cache: single-flight memoization with counters ------------------- *)

let test_cache_counters () =
  let c : int Cache.t = Cache.create () in
  let builds = ref 0 in
  let build () = incr builds; 42 in
  Alcotest.(check int) "miss builds" 42 (Cache.find_or_build c "k" build);
  Alcotest.(check int) "hit reuses" 42 (Cache.find_or_build c "k" build);
  Alcotest.(check int) "builder ran once" 1 !builds;
  let s = Cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check bool) "mem" true (Cache.mem c "k");
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.mem c "k")

let test_cache_failed_build_releases_slot () =
  let c : int Cache.t = Cache.create () in
  (match Cache.find_or_build c "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "slot released" false (Cache.mem c "k");
  Alcotest.(check int) "retry succeeds" 7
    (Cache.find_or_build c "k" (fun () -> 7))

(* regression: a miss means "a builder invocation settled an artifact".
   A failed build must count nothing — the registry's
   [build/cache/misses] is ticked per successful compile, and the two
   layers drifted apart by exactly the failed builds before the counter
   moved to the settle path. *)
let test_cache_failed_build_not_a_miss () =
  let c : int Cache.t = Cache.create () in
  (match Cache.find_or_build c "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  let s = Cache.stats c in
  Alcotest.(check int) "failed build is not a miss" 0 s.Cache.misses;
  ignore (Cache.find_or_build c "k" (fun () -> 7));
  let s = Cache.stats c in
  Alcotest.(check int) "the settling retry is one miss" 1 s.Cache.misses

(* --- the build cache: hits are physically equal ----------------------- *)

let src_cached = "int main(void) { return 0; }"

let test_build_cache_physical_equality () =
  Build.reset_cache ();
  let b1 = Build.compile Build.Safe src_cached in
  let b2 = Build.compile Build.Safe src_cached in
  Alcotest.(check bool) "hit returns the physically-equal built" true
    (b1 == b2);
  let s = Build.cache_stats () in
  Alcotest.(check int) "one build" 1 s.Exec.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Exec.Cache.hits

(* regression: the collector mode is a run-time choice, not a build
   input, so two requests that differ only in it share one artifact *)
let test_build_cache_gc_mode_shares_artifact () =
  Build.reset_cache ();
  let session = Build.new_session () in
  let compile gc_mode =
    let r = Harness.Request.make ~gc_mode src_cached in
    Build.compile
      ~options:(Harness.Request.build_options r)
      r.Harness.Request.config r.Harness.Request.source
  in
  let stw = compile Gcheap.Heap.Stw in
  let gen = compile Gcheap.Heap.Gen in
  Alcotest.(check bool) "gen run reuses the stw artifact" true (stw == gen);
  let s = Build.session_stats session in
  Alcotest.(check int) "one build" 1 s.Exec.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Exec.Cache.hits

let test_build_cache_parallel_single_flight () =
  Build.reset_cache ();
  let built =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun _ -> Build.compile Build.Safe_peephole src_cached)
          (List.init 8 Fun.id))
  in
  (match built with
  | first :: rest ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "all requesters share one artifact" true
            (b == first))
        rest
  | [] -> Alcotest.fail "no results");
  let s = Build.cache_stats () in
  Alcotest.(check int) "concurrent requests built once" 1 s.Exec.Cache.misses

let test_build_no_cache () =
  Build.reset_cache ();
  let options = { Build.default with Build.use_cache = false } in
  let b1 = Build.compile ~options Build.Base src_cached in
  let b2 = Build.compile ~options Build.Base src_cached in
  Alcotest.(check bool) "uncached builds are distinct" true (not (b1 == b2));
  Build.set_cache_enabled false;
  let b3 = Build.compile Build.Base src_cached in
  let b4 = Build.compile Build.Base src_cached in
  Build.set_cache_enabled true;
  Alcotest.(check bool) "process-wide escape hatch" true (not (b3 == b4))

(* regression for the BENCH_7 accounting mismatch: the cache's own
   counters and the telemetry registry's [build/cache/*] counters must
   agree, failed builds included, because both now count settled
   builds. *)
let test_build_cache_agrees_with_registry () =
  Build.reset_cache ();
  let session = Build.new_session () in
  let m = Telemetry.Metrics.create () in
  let telemetry = Telemetry.Sink.make ~metrics:m () in
  let counter name =
    match Telemetry.Metrics.find (Telemetry.Metrics.snapshot m) name with
    | Some (Telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  ignore (Build.compile ~telemetry Build.Safe src_cached);
  ignore (Build.compile ~telemetry Build.Safe src_cached);
  (match Build.compile ~telemetry Build.Safe "int main(void { nope" with
  | _ -> Alcotest.fail "expected a build failure"
  | exception _ -> ());
  let s = Build.session_stats session in
  Alcotest.(check int) "misses agree with build/cache/misses"
    (counter "build/cache/misses") s.Exec.Cache.misses;
  Alcotest.(check int) "hits agree with build/cache/hits"
    (counter "build/cache/hits") s.Exec.Cache.hits;
  Alcotest.(check int) "the failed build counted no miss" 1
    s.Exec.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Exec.Cache.hits

(* --- qcheck: the cache key is injective in the build inputs ----------- *)

let sources = [| src_cached; "int main(void) { return 1; }"; "long g;" |]

let gen_input =
  QCheck.Gen.(
    let* nregs = int_range 1 64 in
    let* loop_heuristic = bool in
    let* use_cache = bool in
    let* analysis = oneofl [ Gcsafe.Mode.A_none; Gcsafe.Mode.A_flow ] in
    let* config = oneofl Build.all_configs in
    let* source = oneofl (Array.to_list sources) in
    return
      ( { Build.nregs; loop_heuristic; use_cache; analysis },
        config,
        source ))

let arb_input =
  QCheck.make
    ~print:(fun (o, c, s) ->
      Printf.sprintf "{nregs=%d; loop=%b; cache=%b; analysis=%s} %s %S"
        o.Build.nregs o.Build.loop_heuristic o.Build.use_cache
        (Gcsafe.Mode.analysis_to_string o.Build.analysis)
        (Build.config_name c) s)
    gen_input

let prop_cache_key_injective =
  QCheck.Test.make ~count:500 ~name:"cache key injective in build inputs"
    (QCheck.pair arb_input arb_input)
    (fun ((o1, c1, s1), (o2, c2, s2)) ->
      let same_inputs =
        o1.Build.nregs = o2.Build.nregs
        && o1.Build.loop_heuristic = o2.Build.loop_heuristic
        && o1.Build.analysis = o2.Build.analysis
        && c1 = c2 && s1 = s2
      in
      (* use_cache steers the lookup, not the artifact: it must not
         split the key space *)
      String.equal (Build.cache_key o1 c1 s1) (Build.cache_key o2 c2 s2)
      = same_inputs)

(* --- diagnostics: one exit code per class ----------------------------- *)

let test_diagnostics_exit_codes () =
  let open Diagnostics in
  List.iter
    (fun (outcome, code) ->
      Alcotest.(check int) (outcome_name outcome) code (exit_code outcome))
    [
      (Ok, 0);
      (Divergence, 1);
      (Source_error, 2);
      (Fault, 3);
      (Limit, 4);
      (Corruption, 5);
      (Heap_exhausted, 6);
      (Task_quarantined, 7);
    ]

let test_diagnostics_classify () =
  (match Diagnostics.of_exn (Machine.Vm.Fault "x") with
  | Some (Diagnostics.Fault, m) ->
      Alcotest.(check string) "fault message" "fault: x" m
  | _ -> Alcotest.fail "Vm.Fault should classify as Fault");
  (match Diagnostics.of_exn Not_found with
  | None -> ()
  | Some _ -> Alcotest.fail "foreign exceptions are not classified");
  let class_of o =
    Diagnostics.outcome_name
      (Harness.Outcome.classify (Harness.Outcome.of_measure o))
  in
  Alcotest.(check string) "Detected is a fault" "fault"
    (class_of (Harness.Measure.Detected "y"));
  Alcotest.(check string) "Detected message" "detected: y"
    (Harness.Measure.describe (Harness.Measure.Detected "y"));
  Alcotest.(check string) "Corrupted run classified" "corruption"
    (class_of (Harness.Measure.Corrupted "z"))

(* --- parallel stress == serial stress on the hazard corpus ------------ *)

let test_parallel_stress_identical () =
  let plan machines jobs =
    {
      Stress.Driver.default_plan with
      Stress.Driver.p_matrix =
        {
          Harness.Request.default_matrix with
          Harness.Request.m_machines = machines;
        };
      Stress.Driver.p_jobs = jobs;
    }
  in
  let render jobs =
    Build.reset_cache ();
    let report =
      Stress.Driver.run
        ~plan:(plan [ Machine.Machdesc.sparc10 ] jobs)
        [ Stress.Corpus.hazard; Stress.Corpus.interior ]
    in
    Format.asprintf "%a" Stress.Driver.pp_report report
  in
  let serial = render 1 in
  let parallel = render 4 in
  Alcotest.(check string)
    "4-job report byte-identical to serial, run counts included" serial
    parallel

(* --- every run-time knob of a request reaches its run ---------------- *)

(* 8000 40-byte allocations, one in a hundred kept on a list: a few
   collections at the default threshold. *)
let knob_source =
  {|int main(void) {
  long *keep = 0;
  long i;
  long sum = 0;
  for (i = 0; i < 8000; i = i + 1) {
    long *n = (long *)malloc(40);
    n[0] = i;
    if (i % 100 == 0) {
      n[1] = (long)keep;
      keep = n;
    }
    sum = sum + n[0];
  }
  printf("%ld\n", sum);
  return 0;
}|}

(* One row per run-time field of [Request.t]: the field set away from
   its default, and what that must change in the outcome.  A field
   dropped on its way to the VM or the heap leaves its row's outcome at
   the default's, which each check rules out. *)
let test_request_knobs_reach_run () =
  let module R = Harness.Request in
  let module M = Harness.Measure in
  let exec r =
    let before = Atomic.get Gcheap.Heap.integrity_checks in
    let o = Util.exec r in
    (o, Atomic.get Gcheap.Heap.integrity_checks - before)
  in
  let ran what = function
    | M.Ran x -> x
    | o -> Alcotest.failf "%s: expected a run, got %s" what (M.describe o)
  in
  let base = R.make knob_source in
  let inc = { base with R.gc_mode = Gcheap.Heap.Inc } in
  let d, d_checks = exec base in
  let d = ran "defaults" d in
  let d_inc = ran "inc" (fst (exec inc)) in
  Alcotest.(check string) "defaults print the sum" "31996000\n" d.M.o_output;
  Alcotest.(check int) "defaults run no integrity check" 0 d_checks;
  let exhausted policy = function
    | M.Exhausted m, _ ->
        String.ends_with ~suffix:("policy " ^ policy ^ ")") m
    | _ -> false
  in
  let limit kind = function
    | M.Limit m, _ -> String.starts_with ~prefix:kind m
    | _ -> false
  in
  let run_with f (o, checks) =
    match o with M.Ran x -> f x checks | _ -> false
  in
  let rows =
    [
      ("gc_mode", inc, run_with (fun x _ -> x.M.o_increments > 0));
      ( "gc_threshold",
        { base with R.gc_threshold = Some 16384 },
        run_with (fun x _ -> x.M.o_gc_count > d.M.o_gc_count) );
      ( "gc_pause_budget",
        { inc with R.gc_pause_budget = Some 64 },
        run_with (fun x _ -> x.M.o_increments > d_inc.M.o_increments) );
      ( "heap_limit",
        { base with R.heap_limit = 40000 },
        run_with (fun x _ -> x.M.o_emergency > 0) );
      ( "heap_limit with oom_policy",
        { base with R.heap_limit = 40000; oom_policy = Gcheap.Heap.Trap },
        exhausted "trap" );
      ( "alloc_failpoints",
        { base with R.alloc_failpoints = Gcheap.Failpoint.Nth 5 },
        run_with (fun x _ ->
            x.M.o_injected_failures = 1 && x.M.o_emergency = 1) );
      ( "max_instrs",
        { base with R.max_instrs = Some 1000 },
        limit "step-limit" );
      ("max_heap", { base with R.max_heap = Some 4096 }, limit "heap-limit");
      ( "schedule",
        { base with R.schedule = Machine.Schedule.At_allocs },
        run_with (fun x _ -> x.M.o_gc_count >= 8000) );
      ( "final_collect",
        { base with R.final_collect = true },
        run_with (fun x _ -> x.M.o_live_objects < d.M.o_live_objects) );
      ( "check_integrity",
        { base with R.check_integrity = true },
        run_with (fun _ checks -> checks > 0) );
    ]
  in
  List.iter
    (fun (field, r, effect) ->
      let ((o, _) as result) = exec r in
      if not (effect result) then
        Alcotest.failf "%s did not reach the run: %s" field (M.describe o))
    rows

let suite =
  [
    Alcotest.test_case "pool: tasks run exactly once, ordered" `Quick
      test_pool_once_each;
    Alcotest.test_case "pool: jobs=1 is inline serial" `Quick
      test_pool_serial_inline;
    Alcotest.test_case "pool: reusable across maps" `Quick test_pool_reusable;
    Alcotest.test_case "pool: submitter claims before the last task starts"
      `Quick test_pool_submitter_claims_early;
    Alcotest.test_case "pool: first-index exception wins" `Quick
      test_pool_exception;
    Alcotest.test_case "cache: counters and clear" `Quick test_cache_counters;
    Alcotest.test_case "cache: failed build releases the slot" `Quick
      test_cache_failed_build_releases_slot;
    Alcotest.test_case "cache: failed build is not a miss" `Quick
      test_cache_failed_build_not_a_miss;
    Alcotest.test_case "build cache: counters agree with the registry"
      `Quick test_build_cache_agrees_with_registry;
    Alcotest.test_case "build cache: hits physically equal" `Quick
      test_build_cache_physical_equality;
    Alcotest.test_case "build cache: gc modes share one artifact" `Quick
      test_build_cache_gc_mode_shares_artifact;
    Alcotest.test_case "build cache: parallel single-flight" `Quick
      test_build_cache_parallel_single_flight;
    Alcotest.test_case "build cache: escape hatches" `Quick
      test_build_no_cache;
    QCheck_alcotest.to_alcotest prop_cache_key_injective;
    Alcotest.test_case "diagnostics: exit codes" `Quick
      test_diagnostics_exit_codes;
    Alcotest.test_case "diagnostics: classification" `Quick
      test_diagnostics_classify;
    Alcotest.test_case "stress: parallel report identical to serial" `Slow
      test_parallel_stress_identical;
    Alcotest.test_case "request: every run-time knob reaches its run" `Quick
      test_request_knobs_reach_run;
  ]
