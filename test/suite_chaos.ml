(* Chaos-hardening tests: the allocation-failure injector, the heap's
   OOM policies (including page reclamation by emergency collections),
   the supervised worker pool, and the self-verifying artifact cache. *)

open Gcheap
module Pool = Exec.Pool
module Cache = Exec.Cache

(* --- failpoint plans -------------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_failpoint_roundtrip () =
  List.iter
    (fun s ->
      match Failpoint.of_string s with
      | None -> Alcotest.fail ("unparsable: " ^ s)
      | Some p ->
          Alcotest.(check string) s s (Failpoint.to_string p))
    [ "none"; "nth:5"; "every:3"; "at:{3,7,11}" ];
  (match Failpoint.of_string "42" with
  | Some (Failpoint.Nth 42) -> ()
  | _ -> Alcotest.fail "bare ordinal should parse as Nth");
  (match Failpoint.of_string "3,7,11" with
  | Some (Failpoint.At pts) ->
      Alcotest.(check (list int)) "points" [ 3; 7; 11 ]
        (Failpoint.points_to_list pts)
  | _ -> Alcotest.fail "comma list should parse as At");
  Alcotest.(check bool) "garbage rejected" true
    (Failpoint.of_string "nth:x" = None)

let test_failpoint_fires () =
  let nth = Failpoint.Nth 3 in
  Alcotest.(check (list bool)) "nth" [ false; false; true; false ]
    (List.map (Failpoint.fires nth) [ 1; 2; 3; 4 ]);
  let every = Failpoint.Every 2 in
  Alcotest.(check (list bool)) "every" [ false; true; false; true ]
    (List.map (Failpoint.fires every) [ 1; 2; 3; 4 ]);
  let at = Failpoint.at_list [ 2; 5 ] in
  Alcotest.(check (list bool)) "at" [ false; true; false; false; true ]
    (List.map (Failpoint.fires at) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "never" false (Failpoint.fires Failpoint.Never 1)

(* --- the heap under a hard ceiling ------------------------------------ *)

(* The collect-expand policy must be strictly stronger than trap even
   when the blocker is a *large* allocation: the small garbage below
   fills the arena, and only an emergency collection that retires the
   drained small blocks and recycles their pages (the reclaim pool) can
   find 65 contiguous pages for the closing request. *)
let churn_then_large policy =
  let config =
    { Heap.default_config with
      Heap.heap_limit_words = 40_000 (* 320_000 bytes, 78 pages *);
      oom_policy = policy;
    }
  in
  let h = Heap.create ~config () in
  (* ~70 pages of unreferenced small garbage *)
  for _ = 1 to 4480 do
    ignore (Heap.alloc h 60)
  done;
  let a = Heap.alloc h 260_000 in
  (h, a)

let test_collect_expand_rescues_large_alloc () =
  let h, a = churn_then_large Heap.Collect_expand in
  Alcotest.(check bool) "allocated" true (a >= 0);
  Alcotest.(check bool) "needed emergency collection" true
    (h.Heap.stats.Heap.emergency_collections > 0);
  Alcotest.(check int) "heap still sound" 0
    (List.length (Heap.check_integrity h))

let test_trap_policy_traps () =
  match churn_then_large Heap.Trap with
  | exception Heap.Heap_exhausted _ -> ()
  | _ -> Alcotest.fail "trap policy should raise Heap_exhausted"

let test_injected_failure_trap_vs_recover () =
  (* under trap, a fired point is a structured stop *)
  let trap () =
    let config =
      {
        Heap.default_config with
        Heap.oom_policy = Heap.Trap;
        failpoints = Failpoint.Nth 3;
      }
    in
    let h = Heap.create ~config () in
    ignore (Heap.alloc h 16);
    ignore (Heap.alloc h 16);
    ignore (Heap.alloc h 16)
  in
  (match trap () with
  | exception Heap.Heap_exhausted m ->
      Alcotest.(check bool) "names the ordinal" true
        (contains m "allocation #3")
  | _ -> Alcotest.fail "trap policy should raise on the injected point");
  (* under collect-expand, the same point is an emergency collection *)
  let h =
    Heap.create
      ~config:{ Heap.default_config with Heap.failpoints = Failpoint.Nth 3 }
      ()
  in
  for _ = 1 to 5 do
    ignore (Heap.alloc h 16)
  done;
  Alcotest.(check int) "one injection" 1 h.Heap.stats.Heap.injected_failures;
  Alcotest.(check int) "one emergency" 1
    h.Heap.stats.Heap.emergency_collections

let test_reclaim_pool_unused_without_pressure () =
  (* chaos-off identity depends on the reclaim pool never engaging on
     the default path *)
  let h = Heap.create () in
  for _ = 1 to 2000 do
    ignore (Heap.alloc h 100)
  done;
  ignore (Heap.collect h);
  for _ = 1 to 2000 do
    ignore (Heap.alloc h 5000)
  done;
  Alcotest.(check (list (pair int int))) "pool empty" [] h.Heap.free_pages;
  Alcotest.(check int) "no emergencies" 0
    h.Heap.stats.Heap.emergency_collections

(* --- measured runs: exhaustive allocation-failure exploration --------- *)

let build_example (t : Stress.Corpus.target) =
  Harness.Build.compile Harness.Build.Safe t.Stress.Corpus.t_source

let run_info = function
  | Harness.Measure.Ran r -> r
  | o -> Alcotest.fail ("reference run failed: " ^ Harness.Measure.describe o)

(* Every safe example, under a tight ceiling and the collect-expand
   policy, must survive an injected failure at EVERY allocation ordinal
   with output identical to the fault-free reference.  This is the
   issue's recovery criterion, exhaustively. *)
let test_exhaustive_alloc_failures () =
  List.iter
    (fun (t : Stress.Corpus.target) ->
      let b = build_example t in
      let name = t.Stress.Corpus.t_name in
      let req = Harness.Request.make ~check_integrity:true t.Stress.Corpus.t_source in
      let reference = run_info (Harness.Measure.exec req b) in
      let allocs = reference.Harness.Measure.o_allocs in
      Alcotest.(check bool) (name ^ " allocates") true (allocs > 0);
      for k = 1 to allocs do
        match
          Harness.Measure.exec
            {
              req with
              Harness.Request.heap_limit = 60_000;
              Harness.Request.oom_policy = Heap.Collect_expand;
              Harness.Request.alloc_failpoints = Failpoint.Nth k;
            }
            b
        with
        | Harness.Measure.Ran r ->
            Alcotest.(check string)
              (Printf.sprintf "%s ordinal %d output" name k)
              reference.Harness.Measure.o_output r.Harness.Measure.o_output;
            Alcotest.(check int)
              (Printf.sprintf "%s ordinal %d fired" name k)
              1 r.Harness.Measure.o_injected_failures
        | o ->
            Alcotest.fail
              (Printf.sprintf "%s ordinal %d: %s" name k
                 (Harness.Measure.describe o))
      done)
    Stress.Corpus.examples

(* Trapped, the run is a structured heap-exhausted stop (exit 6), and
   both renderers of a run print the heap's own "heap exhausted:"
   message with that prefix exactly once. *)
let test_measured_trap_is_structured () =
  let t = List.hd Stress.Corpus.examples in
  let b = build_example t in
  match
    Harness.Measure.exec
      (Harness.Request.make ~oom_policy:Heap.Trap
         ~alloc_failpoints:(Failpoint.Nth 1) t.Stress.Corpus.t_source)
      b
  with
  | Harness.Measure.Exhausted _ as o ->
      let outcome = Harness.Outcome.of_measure o in
      Alcotest.(check int) "exit code 6" 6
        (Harness.Diagnostics.exit_code (Harness.Outcome.classify outcome));
      let prefix = "heap exhausted: " in
      let occurrences text =
        let n = String.length prefix in
        List.length
          (List.filter
             (fun i -> String.sub text i n = prefix)
             (List.init (max 0 (String.length text - n + 1)) Fun.id))
      in
      List.iter
        (fun (what, text) ->
          Alcotest.(check bool) (what ^ " leads with the prefix") true
            (String.starts_with ~prefix text);
          Alcotest.(check int) (what ^ " prefix once") 1 (occurrences text))
        [
          ("Measure.describe", Harness.Measure.describe o);
          ("Outcome.describe", Harness.Outcome.describe outcome);
        ]
  | o -> Alcotest.fail ("expected Exhausted, got " ^ Harness.Measure.describe o)

(* --- the paper workloads ------------------------------------------------ *)

(* Chaos off is free and invisible: threading the OOM machinery through
   explicitly (an effectively unlimited ceiling, collect-expand, no
   failpoints) leaves cycles and output bit-identical to the default
   run, in both stop-the-world and generational mode. *)
let test_chaos_off_identity () =
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      List.iter
        (fun gc_mode ->
          let what =
            w.Workloads.Registry.w_name ^ " " ^ Heap.gc_mode_name gc_mode
          in
          let run ?heap_limit () =
            Util.ran what
              (Util.exec
                 (Harness.Request.make ~gc_mode ?heap_limit
                    ~oom_policy:Heap.Collect_expand
                    ~alloc_failpoints:Failpoint.Never
                    w.Workloads.Registry.w_source))
          in
          let plain = run () and guarded = run ~heap_limit:(1 lsl 30) () in
          Alcotest.(check int) (what ^ ": cycles")
            plain.Harness.Measure.o_cycles guarded.Harness.Measure.o_cycles;
          Alcotest.(check string) (what ^ ": output")
            plain.Harness.Measure.o_output guarded.Harness.Measure.o_output)
        [ Heap.Stw; Heap.Gen ])
    Workloads.Registry.paper_suite

(* Emergency collection earns its keep.  Per workload (safe, sparc10):
   the smallest heap ceiling in words under which collect-expand
   completes, found by bisection, and the emergency collections it runs
   there.  At that ceiling the trap policy exhausts — the margin is
   exactly what collect-then-expand recovers — and one word less
   exhausts collect-expand too. *)
let recovery_margins =
  [ ("cordtest", 38912, 5); ("cfrac", 35840, 71); ("gawk", 39936, 2);
    ("gs", 39936, 9) ]

let test_recovery_margin () =
  List.iter
    (fun (name, ceiling, emergencies) ->
      let src =
        match Workloads.Registry.by_name name with
        | Some w -> w.Workloads.Registry.w_source
        | None -> Alcotest.failf "no workload %s" name
      in
      let run heap_limit oom_policy =
        Util.exec (Harness.Request.make ~heap_limit ~oom_policy src)
      in
      let exhausts what = function
        | Harness.Measure.Exhausted _ -> ()
        | o -> Alcotest.failf "%s: %s" what (Harness.Measure.describe o)
      in
      let r =
        Util.ran
          (Printf.sprintf "%s collect-expand at %d" name ceiling)
          (run ceiling Heap.Collect_expand)
      in
      Alcotest.(check int)
        (name ^ ": emergency collections at the ceiling")
        emergencies r.Harness.Measure.o_emergency;
      exhausts
        (Printf.sprintf "%s: trap at %d should exhaust" name ceiling)
        (run ceiling Heap.Trap);
      exhausts
        (Printf.sprintf "%s: collect-expand at %d should exhaust" name
           (ceiling - 1))
        (run (ceiling - 1) Heap.Collect_expand))
    recovery_margins

(* --- supervised pool -------------------------------------------------- *)

let qcheck_to_alcotest = QCheck_alcotest.to_alcotest

let backoff_deterministic =
  QCheck.Test.make ~name:"backoff deterministic and positive" ~count:200
    QCheck.(triple small_int (int_range 1 8) (int_range 1 64))
    (fun (seed, attempt, base) ->
      let a = Pool.backoff_ticks ~seed ~attempt ~base in
      let b = Pool.backoff_ticks ~seed ~attempt ~base in
      a = b && a >= 0)

let supervision_identity =
  QCheck.Test.make
    ~name:"map_supervised with no faults is map (attempts=1, zero stats)"
    ~count:50
    QCheck.(small_list small_int)
    (fun xs ->
      let f _ctx x = (2 * x) + 1 in
      let outcomes, stats = Pool.map_supervised Pool.serial f xs in
      let values =
        List.map
          (function
            | Pool.Done { value; attempts } when attempts = 1 -> value
            | _ -> -1)
          outcomes
      in
      values = List.map (fun x -> (2 * x) + 1) xs
      && stats.Pool.sup_retries = 0
      && stats.Pool.sup_restarts = 0
      && stats.Pool.sup_quarantined = 0)

let test_transient_retry () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let outcomes, stats =
        Pool.map_supervised pool
          (fun ctx x ->
            if ctx.Pool.attempt < 2 then Pool.(raise (Transient "flaky"));
            x * 10)
          [ 1; 2; 3 ]
      in
      List.iter
        (function
          | Pool.Done { attempts; _ } ->
              Alcotest.(check int) "second attempt" 2 attempts
          | Pool.Quarantined { reason; _ } -> Alcotest.fail reason)
        outcomes;
      Alcotest.(check int) "retries" 3 stats.Pool.sup_retries;
      Alcotest.(check bool) "backoff charged" true
        (stats.Pool.sup_backoff_ticks > 0))

let test_crash_restarts_worker () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let outcomes, stats =
        Pool.map_supervised pool
          (fun ctx x ->
            if x = 2 && ctx.Pool.attempt = 1 then
              Pool.(raise (Crash "injected"));
            x)
          [ 1; 2; 3 ]
      in
      (match outcomes with
      | [ Pool.Done { value = 1; _ }; Pool.Done { value = 2; attempts = 2 };
          Pool.Done { value = 3; _ } ] ->
          ()
      | _ -> Alcotest.fail "crashed task should be re-run to completion");
      Alcotest.(check int) "one worker replaced" 1 stats.Pool.sup_restarts)

let test_quarantine_after_cap () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let outcomes, stats =
        Pool.map_supervised pool
          ~policy:{ Pool.default_policy with Pool.max_attempts = 2 }
          (fun _ctx x ->
            if x = 7 then Pool.(raise (Crash "always"));
            x)
          [ 7; 8 ]
      in
      (match outcomes with
      | [ Pool.Quarantined { attempts = 2; _ }; Pool.Done { value = 8; _ } ]
        ->
          ()
      | _ -> Alcotest.fail "persistent crasher should be quarantined");
      Alcotest.(check int) "counted" 1 stats.Pool.sup_quarantined;
      (* the quarantine maps to its own exit code *)
      match Harness.Diagnostics.of_exn (Pool.Crash "x") with
      | Some (o, _) ->
          Alcotest.(check int) "exit code 7" 7
            (Harness.Diagnostics.exit_code o)
      | None -> Alcotest.fail "Crash should classify")

let test_deadline_enforced () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let outcomes, _ =
        Pool.map_supervised pool
          ~policy:
            { Pool.default_policy with
              Pool.deadline = Some 5;
              max_attempts = 2;
            }
          (fun ctx x ->
            if x = 1 then
              for _ = 1 to 100 do
                ctx.Pool.tick ()
              done;
            x)
          [ 1; 2 ]
      in
      match outcomes with
      | [ Pool.Quarantined { reason; _ }; Pool.Done { value = 2; _ } ] ->
          Alcotest.(check bool) "reason names the deadline" true
            (contains reason "deadline")
      | _ -> Alcotest.fail "over-budget task should be quarantined")

let test_supervised_serial_parallel_identical () =
  let scenario pool =
    Pool.map_supervised pool
      ~policy:{ Pool.default_policy with Pool.max_attempts = 3 }
      (fun ctx x ->
        if x mod 3 = 0 && ctx.Pool.attempt = 1 then
          Pool.(raise (Transient "t"));
        if x mod 5 = 0 then Pool.(raise (Crash "c"));
        x * x)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  let serial_outcomes, serial_stats = scenario Pool.serial in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let par_outcomes, par_stats = scenario pool in
          Alcotest.(check bool)
            (Printf.sprintf "outcomes identical at jobs %d" jobs)
            true
            (serial_outcomes = par_outcomes);
          Alcotest.(check bool)
            (Printf.sprintf "stats identical at jobs %d" jobs)
            true (serial_stats = par_stats)))
    [ 2; 4 ]

(* a supervised crash leaves the pool's workers serving later calls *)
let test_pool_reuse_after_crash () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let _, stats =
        Pool.map_supervised pool
          (fun ctx x ->
            if x = 3 && ctx.Pool.attempt = 1 then Pool.(raise (Crash "once"));
            x)
          (List.init 8 Fun.id)
      in
      Alcotest.(check int) "one restart" 1 stats.Pool.sup_restarts;
      Alcotest.(check (list int))
        "map after the crash is input-ordered"
        (List.init 8 (fun i -> i * 10))
        (Pool.map pool (fun x -> x * 10) (List.init 8 Fun.id)))

(* --- artifact cache under faults -------------------------------------- *)

let test_builder_raises_concurrently () =
  (* regression: a raising builder must release the in-flight slot so
     concurrent waiters fail over to building instead of deadlocking *)
  let cache = Cache.create () in
  let first = Atomic.make true in
  let build () =
    if Atomic.exchange first false then failwith "transient build failure";
    "artifact"
  in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun _ ->
            match Cache.find_or_build cache "key" build with
            | v -> Ok v
            | exception Failure m -> Error m)
          [ 1; 2; 3; 4; 5; 6 ])
  in
  let ok = List.filter_map (function Ok v -> Some v | Error _ -> None) results in
  Alcotest.(check bool) "someone succeeded" true (ok <> []);
  List.iter (fun v -> Alcotest.(check string) "artifact" "artifact" v) ok;
  Alcotest.(check string) "cache settled" "artifact"
    (Cache.find_or_build cache "key" (fun () -> Alcotest.fail "rebuilt"))

let test_cache_detects_corruption () =
  let cache = Cache.create ~fingerprint:(fun v -> string_of_int (Hashtbl.hash v)) () in
  let builds = ref 0 in
  let build () = incr builds; "good" in
  ignore (Cache.find_or_build cache "k" build);
  Alcotest.(check bool) "rotted" true (Cache.corrupt cache "k" (fun _ -> "rot"));
  let v = Cache.find_or_build cache "k" build in
  Alcotest.(check string) "rebuilt, never served rot" "good" v;
  let s = Cache.stats cache in
  Alcotest.(check int) "corruption counted" 1 s.Cache.corruptions;
  Alcotest.(check int) "rebuilt once" 2 !builds

let test_corrupt_cached_build () =
  let t = List.hd Stress.Corpus.examples in
  let src = t.Stress.Corpus.t_source in
  let before = build_example t in
  Alcotest.(check bool) "artifact rotted" true
    (Harness.Build.corrupt_cached Harness.Build.Safe src);
  let after = Harness.Build.compile Harness.Build.Safe src in
  let req = Harness.Request.make src in
  Alcotest.(check bool) "rebuilt artifact runs identically" true
    (Harness.Measure.output (Harness.Measure.exec req before)
    = Harness.Measure.output (Harness.Measure.exec req after))

let suite =
  [
    Alcotest.test_case "failpoint round-trip" `Quick test_failpoint_roundtrip;
    Alcotest.test_case "failpoint fires" `Quick test_failpoint_fires;
    Alcotest.test_case "collect-expand rescues large alloc" `Quick
      test_collect_expand_rescues_large_alloc;
    Alcotest.test_case "trap policy traps" `Quick test_trap_policy_traps;
    Alcotest.test_case "injected failure: trap vs recover" `Quick
      test_injected_failure_trap_vs_recover;
    Alcotest.test_case "reclaim pool idle without pressure" `Quick
      test_reclaim_pool_unused_without_pressure;
    Alcotest.test_case "exhaustive alloc-failure exploration" `Slow
      test_exhaustive_alloc_failures;
    Alcotest.test_case "trapped injection is structured" `Quick
      test_measured_trap_is_structured;
    qcheck_to_alcotest backoff_deterministic;
    qcheck_to_alcotest supervision_identity;
    Alcotest.test_case "transient retry" `Quick test_transient_retry;
    Alcotest.test_case "crash restarts worker" `Quick
      test_crash_restarts_worker;
    Alcotest.test_case "quarantine after attempt cap" `Quick
      test_quarantine_after_cap;
    Alcotest.test_case "deadline enforced" `Quick test_deadline_enforced;
    Alcotest.test_case "pool reused after a supervised crash" `Quick
      test_pool_reuse_after_crash;
    Alcotest.test_case "supervised serial == parallel" `Quick
      test_supervised_serial_parallel_identical;
    Alcotest.test_case "builder raises under concurrency" `Quick
      test_builder_raises_concurrently;
    Alcotest.test_case "cache detects corruption" `Quick
      test_cache_detects_corruption;
    Alcotest.test_case "corrupt_cached forces a faithful rebuild" `Quick
      test_corrupt_cached_build;
    Alcotest.test_case "paper workloads: chaos off is bit-identical" `Quick
      test_chaos_off_identity;
    Alcotest.test_case "paper workloads: pinned OOM recovery margin" `Quick
      test_recovery_margin;
  ]
