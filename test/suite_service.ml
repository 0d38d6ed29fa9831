(* The service harness: canonical request keys, admission control,
   robustness identity, drain-on-shutdown, worker-count determinism and
   session-scoped telemetry. *)

module Request = Harness.Request
module Outcome = Harness.Outcome
module Gcsafed = Service.Gcsafed
module Trafficgen = Service.Trafficgen

let trivial_src = "int main(void) { return 0; }"

let tiny_config =
  {
    Gcsafed.default_config with
    Gcsafed.servers = 1;
    Gcsafed.queue_capacity = 2;
  }

let class_of c = Outcome.class_name c.Gcsafed.r_outcome

(* --- canonical keys (qcheck injectivity) ------------------------------- *)

(* cache_key must separate requests exactly when a build-relevant input
   differs: config, register count, loop heuristic, analysis or source.
   The gc mode is drawn too, and must not split the key: it shapes the
   run, not the code. *)
let arb_request =
  let open QCheck in
  let sources =
    [
      trivial_src;
      "int main(void) { (void)malloc(16); return 0; }";
      "long g; int main(void) { g = 7; return 0; }";
    ]
  in
  let machines =
    [
      Machine.Machdesc.sparc2;
      Machine.Machdesc.sparc10;
      Machine.Machdesc.pentium90;
    ]
  in
  make
    ~print:(fun r -> Request.describe r ^ " " ^ Request.cache_key r)
    Gen.(
      let* source = oneofl sources in
      let* config = oneofl Harness.Build.all_configs in
      let* machine = oneofl machines in
      let* analysis = oneofl [ Gcsafe.Mode.A_flow; Gcsafe.Mode.A_none ] in
      let* gc_mode = oneofl [ Gcheap.Heap.Stw; Gcheap.Heap.Gen ] in
      let* loop_heuristic = bool in
      return
        (Request.make ~config ~machine ~analysis ~gc_mode ~loop_heuristic
           source))

let cache_proj (r : Request.t) =
  ( Harness.Build.config_id r.Request.config,
    r.Request.machine.Machine.Machdesc.md_regs,
    r.Request.loop_heuristic,
    r.Request.analysis,
    r.Request.source )

let prop_key_injective =
  QCheck.Test.make ~count:500
    ~name:"cache_key separates exactly the build-relevant inputs"
    QCheck.(pair arb_request arb_request)
    (fun (r1, r2) ->
      (Request.cache_key r1 = Request.cache_key r2)
      = (cache_proj r1 = cache_proj r2))

(* --- wire format -------------------------------------------------------- *)

let test_request_json_roundtrip () =
  let stream =
    Trafficgen.generate
      {
        Trafficgen.default_spec with
        Trafficgen.g_requests = 25;
        g_seed = 11;
        g_chaos_percent = 40;
      }
  in
  List.iter
    (fun (_, r) ->
      match Request.of_json (Request.to_json r) with
      | Error e -> Alcotest.failf "%s: round-trip failed: %s" r.Request.label e
      | Ok r' ->
          Alcotest.(check string)
            (r.Request.label ^ ": json fixpoint")
            (Telemetry.Json.to_string (Request.to_json r))
            (Telemetry.Json.to_string (Request.to_json r'));
          Alcotest.(check string)
            (r.Request.label ^ ": cache key preserved")
            (Request.cache_key r) (Request.cache_key r'))
    stream

let test_of_json_rejects_garbage () =
  (match Request.of_json (Telemetry.Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sourceless request accepted");
  match
    Request.of_json
      (Telemetry.Json.Obj
         [
           ("source", Telemetry.Json.Str trivial_src);
           ("config", Telemetry.Json.Str "no-such-config");
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown config accepted"

(* --- outcome classification -------------------------------------------- *)

let test_execute_total_on_garbage () =
  match Outcome.execute (Request.make "int main(void) { return g") with
  | Outcome.Source_error _ as o ->
      Alcotest.(check int) "exit code 2" 2
        (Harness.Diagnostics.exit_code (Outcome.classify o))
  | o -> Alcotest.failf "expected Source_error, got %s" (Outcome.describe o)

(* Integer literals that do not fit in an int, or spell no digits, are
   source errors: lexing them once raised [Failure "int_of_string"],
   which the service counted as an unexpected internal error. *)
let test_bad_integer_literals_are_source_errors () =
  let sources =
    [
      "int main(void) { return 0x; }";
      "int main(void) { long x = 12345678901234567890; return 0; }";
      "int main(void) { long x = 0x123456789abcdef0123; return 0; }";
    ]
  in
  let t = Gcsafed.create tiny_config in
  List.iter (fun src -> Gcsafed.submit ~arrival:0 t (Request.make src)) sources;
  Gcsafed.drain t;
  Alcotest.(check (list string))
    "each a source error"
    [ "source-error"; "source-error"; "source-error" ]
    (List.map class_of (Gcsafed.completions t));
  Alcotest.(check int) "none unexpected" 0 (Gcsafed.report t).Gcsafed.rp_unexpected

let test_rejection_is_structured () =
  let o = Outcome.Rejected "queue full (capacity 2)" in
  Alcotest.(check string) "class" "rejected-overload" (Outcome.class_name o);
  Alcotest.(check int) "exit code 8" 8
    (Harness.Diagnostics.exit_code (Outcome.classify o))

(* --- admission control -------------------------------------------------- *)

(* one lane, a two-slot waiting room, six simultaneous arrivals: the
   first starts, two wait, three are shed — deterministically, in
   submission order *)
let test_queue_full_rejection_deterministic () =
  let t = Gcsafed.create tiny_config in
  for _ = 1 to 6 do
    Gcsafed.submit ~arrival:0 t (Request.make trivial_src)
  done;
  Gcsafed.drain t;
  let classes = List.map class_of (Gcsafed.completions t) in
  Alcotest.(check (list string))
    "first three admitted, last three shed"
    [ "ok"; "ok"; "ok"; "rejected-overload"; "rejected-overload";
      "rejected-overload" ]
    classes;
  let r = Gcsafed.report t in
  Alcotest.(check int) "admitted" 3 r.Gcsafed.rp_admitted;
  Alcotest.(check int) "rejected" 3 r.Gcsafed.rp_rejected

(* load shedding preserves the robustness identity: every submitted
   request — including malformed sources under overload — gets exactly
   one structured outcome *)
let test_shedding_preserves_identity () =
  let t = Gcsafed.create tiny_config in
  for i = 0 to 19 do
    let src = if i mod 4 = 3 then "int main(" else trivial_src in
    Gcsafed.submit ~arrival:0 t (Request.make src)
  done;
  Gcsafed.drain t;
  let cs = Gcsafed.completions t in
  Alcotest.(check int) "one completion per submission" 20 (List.length cs);
  let r = Gcsafed.report t in
  Alcotest.(check int) "submitted" 20 r.Gcsafed.rp_submitted;
  Alcotest.(check int) "admitted + rejected = submitted" 20
    (r.Gcsafed.rp_admitted + r.Gcsafed.rp_rejected);
  Alcotest.(check int) "outcome counts total = submitted" 20
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Gcsafed.rp_outcomes);
  Alcotest.(check int) "nothing unexpected" 0 r.Gcsafed.rp_unexpected

let test_drain_on_shutdown () =
  let t = Gcsafed.create Gcsafed.default_config in
  for _ = 1 to 3 do
    Gcsafed.submit t (Request.make trivial_src)
  done;
  Gcsafed.shutdown t;
  Alcotest.(check bool) "shut down" true (Gcsafed.is_shut_down t);
  Alcotest.(check (list string))
    "in-flight requests completed" [ "ok"; "ok"; "ok" ]
    (List.map class_of (Gcsafed.completions t));
  Gcsafed.submit t (Request.make trivial_src);
  Alcotest.(check (list string))
    "post-shutdown submission shed, not dropped"
    [ "ok"; "ok"; "ok"; "rejected-overload" ]
    (List.map class_of (Gcsafed.completions t));
  Gcsafed.shutdown t (* idempotent *)

(* regression: the logical build tier keys on the one build identity, so
   the same source under a second collector mode is a hit *)
let test_gc_modes_share_build_tier () =
  let t = Gcsafed.create Gcsafed.default_config in
  List.iter
    (fun gc_mode -> Gcsafed.submit t (Request.make ~gc_mode trivial_src))
    [ Gcheap.Heap.Stw; Gcheap.Heap.Gen ];
  Gcsafed.drain t;
  let r = Gcsafed.report t in
  Alcotest.(check int) "one logical miss" 1 r.Gcsafed.rp_cache_misses;
  Alcotest.(check int) "one logical hit" 1 r.Gcsafed.rp_cache_hits

(* --- determinism across worker counts ----------------------------------- *)

let bomb spec jobs =
  Exec.Pool.with_pool ~jobs (fun pool ->
      let t = Gcsafed.create ~pool Gcsafed.default_config in
      List.iter
        (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
        (Trafficgen.generate spec);
      Gcsafed.shutdown t;
      ( List.map class_of (Gcsafed.completions t),
        Format.asprintf "%a" Gcsafed.pp_report (Gcsafed.report t) ))

let test_jobs_identity () =
  let spec =
    {
      Trafficgen.default_spec with
      Trafficgen.g_requests = 40;
      g_seed = 5;
      g_mix = Trafficgen.Generated;
      g_chaos_percent = 25;
    }
  in
  let classes1, report1 = bomb spec 1 in
  let classes4, report4 = bomb spec 4 in
  Alcotest.(check (list string))
    "outcome class sequence identical across --jobs" classes1 classes4;
  Alcotest.(check string) "rendered report identical across --jobs" report1
    report4

(* --- traffic generation ------------------------------------------------- *)

let test_trafficgen_deterministic () =
  let spec =
    { Trafficgen.default_spec with Trafficgen.g_requests = 60; g_seed = 9 }
  in
  let sig_of (a, r) = (a, r.Request.label, Request.cache_key r) in
  Alcotest.(check bool)
    "same spec, same stream" true
    (List.map sig_of (Trafficgen.generate spec)
    = List.map sig_of (Trafficgen.generate spec));
  let arrivals = List.map fst (Trafficgen.generate spec) in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals strictly increasing" true
    (increasing arrivals)

let test_source_pool_distinct () =
  let pool = Trafficgen.source_pool ~seed:0 16 in
  Alcotest.(check int) "16 distinct programs" 16
    (List.length (List.sort_uniq compare pool))

(* a small end-to-end bombardment: everything classified, nothing
   unexpected, the build tier visible in the report *)
let test_small_bombardment () =
  let spec =
    {
      Trafficgen.default_spec with
      Trafficgen.g_requests = 50;
      g_seed = 3;
      g_mix = Trafficgen.Generated;
      g_chaos_percent = 20;
    }
  in
  let t = Gcsafed.create Gcsafed.default_config in
  List.iter
    (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
    (Trafficgen.generate spec);
  Gcsafed.shutdown t;
  let r = Gcsafed.report t in
  Alcotest.(check int) "all submitted" 50 r.Gcsafed.rp_submitted;
  Alcotest.(check int) "all classified" 50
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Gcsafed.rp_outcomes);
  Alcotest.(check int) "nothing unexpected" 0 r.Gcsafed.rp_unexpected;
  Alcotest.(check int) "build tier accounted" r.Gcsafed.rp_admitted
    (r.Gcsafed.rp_cache_hits + r.Gcsafed.rp_cache_misses);
  Alcotest.(check bool) "latency percentiles ordered" true
    (r.Gcsafed.rp_latency_p50 <= r.Gcsafed.rp_latency_p90
    && r.Gcsafed.rp_latency_p90 <= r.Gcsafed.rp_latency_p99);
  (* the histogram reads a log2 bucket's upper bound: the exact
     percentile lies in that bucket *)
  List.iter
    (fun (name, exact, bucket) ->
      if not (exact <= bucket && exact > bucket / 2) then
        Alcotest.failf "%s: exact %d outside the histogram's bucket ending %d"
          name exact bucket)
    [
      ("p50", r.Gcsafed.rp_exact_p50, r.Gcsafed.rp_latency_p50);
      ("p90", r.Gcsafed.rp_exact_p90, r.Gcsafed.rp_latency_p90);
      ("p99", r.Gcsafed.rp_exact_p99, r.Gcsafed.rp_latency_p99);
    ];
  (match
     Telemetry.Json.member "latency_ticks_exact" (Gcsafed.report_to_json t)
   with
  | Some (Telemetry.Json.Obj [ ("p50", Telemetry.Json.Int p50); _; _ ]) ->
      Alcotest.(check int) "JSON carries the exact p50" r.Gcsafed.rp_exact_p50
        p50
  | _ -> Alcotest.fail "report JSON lacks latency_ticks_exact");
  match
    Telemetry.Json.member "unexpected" (Gcsafed.report_to_json t)
  with
  | Some (Telemetry.Json.Int 0) -> ()
  | _ -> Alcotest.fail "report JSON must gate on unexpected = 0"

(* Nearest-rank percentiles of hand-picked tick values: the textbook
   example (15, 20, 35, 40, 50), unsorted, and 1..100, where 0.07 * 100
   must not round up past rank 7. *)
let test_exact_percentiles () =
  let check name want values p =
    Alcotest.(check int) name want (Gcsafed.nearest_rank values p)
  in
  let five = [ 40; 15; 50; 35; 20 ] in
  check "no values" 0 [] 0.5;
  check "one value" 7 [ 7 ] 0.99;
  check "p0 is the least" 15 five 0.0;
  check "p30" 20 five 0.30;
  check "p40" 20 five 0.40;
  check "p50" 35 five 0.50;
  check "p100" 50 five 1.0;
  let hundred = List.init 100 (fun i -> 100 - i) in
  check "p07 of 1..100" 7 hundred 0.07;
  check "p50 of 1..100" 50 hundred 0.50;
  check "p90 of 1..100" 90 hundred 0.90;
  check "p99 of 1..100" 99 hundred 0.99;
  (* both fall in one log2 bucket, [16384, 32767], which a histogram
     percentile reports as 32767 for both *)
  let split = List.init 50 (fun _ -> 17000) @ List.init 50 (fun _ -> 30000) in
  check "p50 tells a shared bucket apart" 17000 split 0.50;
  check "p99 tells a shared bucket apart" 30000 split 0.99

(* --- session-scoped telemetry ------------------------------------------- *)

let counter metrics name =
  match
    Telemetry.Metrics.find (Telemetry.Metrics.snapshot metrics) name
  with
  | Some (Telemetry.Metrics.Counter n) -> n
  | _ -> 0

(* two interleaved sessions must each report exactly their own traffic:
   no process-global registry, no cross-talk *)
let test_interleaved_sessions_isolated () =
  let src_a = "int main(void) { (void)malloc(64); return 0; }" in
  let src_b =
    {|int main(void) {
  long i;
  for (i = 0; i < 20; i = i + 1) (void)malloc(32);
  return 0;
}|}
  in
  let steps_of src =
    let m = Telemetry.Metrics.create () in
    (match
       Outcome.execute
         ~telemetry:(Telemetry.Sink.make ~metrics:m ())
         (Request.make src)
     with
    | Outcome.Ran _ -> ()
    | o -> Alcotest.failf "reference run failed: %s" (Outcome.describe o));
    counter m "vm/steps"
  in
  let steps_a = steps_of src_a and steps_b = steps_of src_b in
  Alcotest.(check bool) "workloads distinguishable" true (steps_a <> steps_b);
  let s1 = Gcsafed.create Gcsafed.default_config in
  let s2 = Gcsafed.create Gcsafed.default_config in
  Gcsafed.submit s1 (Request.make src_a);
  Gcsafed.submit s2 (Request.make src_b);
  Gcsafed.submit s1 (Request.make src_a);
  Gcsafed.submit s2 (Request.make src_b);
  Gcsafed.submit s2 (Request.make src_b);
  Gcsafed.drain s1;
  Gcsafed.drain s2;
  Alcotest.(check int) "session 1 counts exactly its own steps"
    (2 * steps_a)
    (counter (Gcsafed.metrics s1) "vm/steps");
  Alcotest.(check int) "session 2 counts exactly its own steps"
    (3 * steps_b)
    (counter (Gcsafed.metrics s2) "vm/steps")

(* rejected requests leave no trace in the session registry *)
let test_rejected_not_absorbed () =
  let t = Gcsafed.create tiny_config in
  for _ = 1 to 6 do
    Gcsafed.submit ~arrival:0 t (Request.make trivial_src)
  done;
  Gcsafed.drain t;
  let single =
    let m = Telemetry.Metrics.create () in
    (match
       Outcome.execute
         ~telemetry:(Telemetry.Sink.make ~metrics:m ())
         (Request.make trivial_src)
     with
    | Outcome.Ran _ -> ()
    | o -> Alcotest.failf "reference run failed: %s" (Outcome.describe o));
    counter m "vm/steps"
  in
  Alcotest.(check int) "only the three admitted runs absorbed" (3 * single)
    (counter (Gcsafed.metrics t) "vm/steps")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_key_injective;
    Alcotest.test_case "request json round-trip" `Quick
      test_request_json_roundtrip;
    Alcotest.test_case "of_json rejects garbage" `Quick
      test_of_json_rejects_garbage;
    Alcotest.test_case "execute is total on parse errors" `Quick
      test_execute_total_on_garbage;
    Alcotest.test_case "bad integer literals are source errors" `Quick
      test_bad_integer_literals_are_source_errors;
    Alcotest.test_case "rejection is structured (exit 8)" `Quick
      test_rejection_is_structured;
    Alcotest.test_case "queue-full rejection deterministic" `Quick
      test_queue_full_rejection_deterministic;
    Alcotest.test_case "load shedding preserves identity" `Quick
      test_shedding_preserves_identity;
    Alcotest.test_case "drain on shutdown" `Quick test_drain_on_shutdown;
    Alcotest.test_case "gc modes share the build tier" `Quick
      test_gc_modes_share_build_tier;
    Alcotest.test_case "report identical across --jobs" `Quick
      test_jobs_identity;
    Alcotest.test_case "trafficgen deterministic" `Quick
      test_trafficgen_deterministic;
    Alcotest.test_case "source pool distinct" `Quick test_source_pool_distinct;
    Alcotest.test_case "small bombardment classified" `Quick
      test_small_bombardment;
    Alcotest.test_case "interleaved sessions isolated" `Quick
      test_interleaved_sessions_isolated;
    Alcotest.test_case "rejected requests not absorbed" `Quick
      test_rejected_not_absorbed;
    Alcotest.test_case "exact latency percentiles" `Quick
      test_exact_percentiles;
  ]
