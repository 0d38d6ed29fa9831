(* Telemetry-subsystem tests: metrics registry snapshot/diff laws, JSON
   roundtrips, Chrome-trace well-formedness and nesting balance, parallel
   trace determinism after lane normalization, heap-profiler drag
   accounting, session-scoped cache counters, and the end-to-end contract
   that instrumentation never perturbs execution. *)

module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Trace = Telemetry.Trace
module Profiler = Telemetry.Heap_profiler
module Sink = Telemetry.Sink
module Flight = Telemetry.Flight_recorder

(* --- JSON: render/parse roundtrips ------------------------------------- *)

let test_json_roundtrip () =
  let docs =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Str "a \"quoted\" line\nwith \\ and \t tab";
      Json.List [ Json.Int 1; Json.Str "x"; Json.Null ];
      Json.Obj
        [
          ("empty", Json.Obj []);
          ("list", Json.List []);
          ("nested", Json.Obj [ ("k", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun doc ->
      match Json.parse (Json.to_string doc) with
      | Ok back ->
          Alcotest.(check bool)
            (Json.to_string doc) true (Json.equal doc back)
      | Error e -> Alcotest.fail e)
    docs

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_numbers () =
  (match Json.parse "17" with
  | Ok (Json.Int 17) -> ()
  | _ -> Alcotest.fail "17 should parse as Int");
  match Json.parse "1.5" with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "float" 1.5 f
  | _ -> Alcotest.fail "1.5 should parse as Float"

(* --- metrics: instruments and snapshot laws ---------------------------- *)

let test_counter_gauge_histogram () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 41;
  let g = Metrics.gauge m "g" in
  Metrics.set g 7;
  Metrics.set g 3;
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 0; 1; 100; 100000 ];
  let s = Metrics.snapshot m in
  (match Metrics.find s "c" with
  | Some (Metrics.Counter 42) -> ()
  | _ -> Alcotest.fail "counter");
  (match Metrics.find s "g" with
  | Some (Metrics.Gauge { last = 3; max = 7 }) -> ()
  | _ -> Alcotest.fail "gauge keeps last and max");
  match Metrics.find s "h" with
  | Some (Metrics.Histogram { count = 4; sum = 100101; _ }) -> ()
  | _ -> Alcotest.fail "histogram count/sum"

let test_registration_idempotent () =
  let m = Metrics.create () in
  let a = Metrics.counter m "same" and b = Metrics.counter m "same" in
  Metrics.incr a;
  Metrics.incr b;
  match Metrics.find (Metrics.snapshot m) "same" with
  | Some (Metrics.Counter 2) -> ()
  | _ -> Alcotest.fail "both handles hit one instrument"

let test_scope_prefixes () =
  let m = Metrics.create () in
  let vm = Metrics.scope m "vm" in
  Metrics.incr (Metrics.counter vm "steps");
  match Metrics.find (Metrics.snapshot m) "vm/steps" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "scoped name lands in the parent registry"

let test_disabled_no_ops () =
  Alcotest.(check bool) "disabled" false (Metrics.is_enabled Metrics.disabled);
  let c = Metrics.counter Metrics.disabled "c" in
  Metrics.add c 5;
  Metrics.observe (Metrics.histogram Metrics.disabled "h") 9;
  Alcotest.(check int)
    "snapshot empty" 0
    (List.length (Metrics.snapshot Metrics.disabled))

(* qcheck: for any interval of operations, [diff (snap after) (snap
   before)] equals a fresh registry that saw only the interval. *)
let ops_gen =
  QCheck.(list (pair (int_range 0 2) small_nat))

let apply_ops m ops =
  List.iter
    (fun (kind, v) ->
      match kind with
      | 0 -> Metrics.add (Metrics.counter m "c") v
      | 1 -> Metrics.set (Metrics.gauge m "g") v
      | _ -> Metrics.observe (Metrics.histogram m "h") v)
    ops

let test_diff_law =
  QCheck.Test.make ~name:"diff snap law" ~count:200
    QCheck.(pair ops_gen ops_gen)
    (fun (before, interval) ->
      let m = Metrics.create () in
      apply_ops m before;
      let s0 = Metrics.snapshot m in
      apply_ops m interval;
      let d = Metrics.diff (Metrics.snapshot m) s0 in
      let fresh = Metrics.create () in
      apply_ops fresh interval;
      let expect = Metrics.snapshot fresh in
      (* counters and histograms subtract exactly; gauges keep the later
         value, so compare them only when the interval set the gauge *)
      let counter_ok =
        match (Metrics.find d "c", Metrics.find expect "c") with
        | Some (Metrics.Counter a), Some (Metrics.Counter b) -> a = b
        | None, None -> true
        | Some (Metrics.Counter a), None -> a = 0
        | _ -> false
      in
      let hist_ok =
        match (Metrics.find d "h", Metrics.find expect "h") with
        | ( Some (Metrics.Histogram { count = c1; sum = s1; _ }),
            Some (Metrics.Histogram { count = c2; sum = s2; _ }) ) ->
            c1 = c2 && s1 = s2
        | None, None -> true
        | Some (Metrics.Histogram { count; sum; _ }), None ->
            count = 0 && sum = 0
        | _ -> false
      in
      counter_ok && hist_ok)

let test_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1_000_000))
    (fun vs ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.find (Metrics.snapshot m) "h" with
      | Some (Metrics.Histogram { buckets; max; _ }) ->
          let p50 = Metrics.percentile buckets 0.5
          and p90 = Metrics.percentile buckets 0.9
          and p99 = Metrics.percentile buckets 0.99 in
          (* with <= 50 samples the 99th percentile falls in the max's
             bucket, whose upper edge bounds the true max *)
          p50 <= p90 && p90 <= p99
          && List.fold_left Stdlib.max 0 vs <= p99
          && max = List.fold_left Stdlib.max 0 vs
      | _ -> false)

(* Nearest-rank boundary cases for [Metrics.percentile].  The rounding
   regression: [0.07 *. 100. = 7.0000000000000006] in binary floating
   point, so a bare [ceil] selected the 8th order statistic instead of
   the 7th. *)
let test_percentile_boundaries () =
  let snap_buckets m =
    match Metrics.find (Metrics.snapshot m) "h" with
    | Some (Metrics.Histogram { buckets; _ }) -> buckets
    | _ -> Alcotest.fail "histogram missing from snapshot"
  in
  Alcotest.(check int) "empty buckets" 0 (Metrics.percentile [||] 0.5);
  Alcotest.(check int)
    "all-zero buckets" 0
    (Metrics.percentile [| 0; 0; 0; 0 |] 0.99);
  (* 7 samples in the edge-1 bucket, 93 in the edge-7 bucket: the 7th
     order statistic is still the small value. *)
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  for _ = 1 to 7 do
    Metrics.observe h 1
  done;
  for _ = 1 to 93 do
    Metrics.observe h 5
  done;
  let buckets = snap_buckets m in
  Alcotest.(check int)
    "float overshoot does not skip a rank" 1
    (Metrics.percentile buckets 0.07);
  Alcotest.(check int)
    "rank just past the boundary" 7
    (Metrics.percentile buckets 0.08);
  Alcotest.(check int)
    "p=0 clamps to the first order statistic" 1
    (Metrics.percentile buckets 0.0);
  Alcotest.(check int)
    "p=1 is the maximum occupied bucket edge" 7
    (Metrics.percentile buckets 1.0);
  Alcotest.(check int) "p above 1 clamps" 7 (Metrics.percentile buckets 1.5);
  Alcotest.(check int)
    "negative p clamps" 1
    (Metrics.percentile buckets (-0.25));
  Alcotest.(check int) "NaN clamps low" 1 (Metrics.percentile buckets Float.nan);
  (* single-bucket histogram: every percentile is that bucket's edge *)
  let m1 = Metrics.create () in
  let h1 = Metrics.histogram m1 "h" in
  Metrics.observe h1 6;
  let b1 = snap_buckets m1 in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "single bucket at p=%g" p)
        7 (Metrics.percentile b1 p))
    [ 0.0; 0.01; 0.5; 0.99; 1.0 ]

(* upper edge of the power-of-two bucket holding [v], mirroring the
   histogram's bucketing *)
let bucket_edge v =
  if v <= 0 then 0
  else begin
    let i = ref 1 in
    while v > (1 lsl !i) - 1 do
      incr i
    done;
    (1 lsl !i) - 1
  end

let test_percentile_nearest_rank =
  QCheck.Test.make ~name:"percentile is the nearest-rank statistic" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (int_bound 100_000))
        (int_bound 10_000))
    (fun (vs, kseed) ->
      let n = List.length vs in
      let k = 1 + (kseed mod n) in
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      List.iter (Metrics.observe h) vs;
      match Metrics.find (Metrics.snapshot m) "h" with
      | Some (Metrics.Histogram { buckets; _ }) ->
          let kth = List.nth (List.sort compare vs) (k - 1) in
          Metrics.percentile buckets (float_of_int k /. float_of_int n)
          = bucket_edge kth
      | _ -> false)

(* --- trace: well-formedness and the checker ---------------------------- *)

let test_trace_valid () =
  let tr = Trace.create () in
  let sink = Some (Sink.make ~trace:tr ()) in
  Sink.span sink "outer" (fun () ->
      Sink.instant sink ~ts:0 ~args:(fun () -> [ ("k", Json.Int 1) ]) "tick";
      Sink.span sink "inner" ignore;
      Trace.counter tr "heap" [ ("live", 128) ]);
  match Trace.check (Trace.to_json tr) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The sink's bracket closes the trace span and the recorder's
   [.begin]/[.end] pair even when the bracketed call raises, as a
   collection does on heap corruption. *)
let test_trace_span_closed_on_raise () =
  let tr = Trace.create () in
  let recorder = Flight.create () in
  let sink = Some (Sink.make ~trace:tr ~recorder ()) in
  let ended = ref false in
  (try
     Sink.span sink "vm.run" (fun () ->
         Sink.span sink ~ts:7 "gc"
           ~args:(fun () -> [ ("gen", Json.Str "major") ])
           ~end_args:(fun () ->
             ended := true;
             [ ("pause_words", Json.Int 3) ])
           (fun () -> failwith "collector raised"))
   with Failure _ -> ());
  Alcotest.(check bool) "end arguments built on the raise" true !ended;
  (match Trace.check (Trace.to_json tr) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace unbalanced: " ^ e));
  (match Flight.check (Flight.dump recorder) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("dump unbalanced: " ^ e));
  Alcotest.(check (list (pair string string)))
    "trace: both spans opened and closed"
    [ ("vm.run", "B"); ("gc", "B"); ("gc", "E"); ("vm.run", "E") ]
    (List.map
       (fun e -> (e.Trace.ev_name, String.make 1 e.Trace.ev_ph))
       (Trace.events tr));
  Alcotest.(check (list string))
    "recorder: only the timestamped span, begin and end"
    [
      {|{"ordinal":0,"ts":7,"kind":"gc.begin","args":{"gen":"major"}}|};
      {|{"ordinal":1,"ts":7,"kind":"gc.end","args":{"gen":"major","pause_words":3}}|};
    ]
    (List.map
       (fun e -> Json.to_string (Flight.event_to_json e))
       (Flight.events recorder))

(* With no tracer and no recorder the emitter never builds its
   arguments. *)
let test_sink_silent_builds_nothing () =
  let built = ref 0 in
  let args () =
    incr built;
    []
  in
  List.iter
    (fun sink ->
      Alcotest.(check int) "span result" 5
        (Sink.span sink ~ts:1 ~args ~end_args:args "gc" (fun () -> 5));
      Sink.instant sink ~ts:1 ~args "gc.step")
    [ Sink.none; Some (Sink.make ()) ];
  Sink.span
    (Some (Sink.make ~recorder:(Flight.create ()) ()))
    ~args "vm.run" ignore;
  Alcotest.(check int) "argument thunks called" 0 !built

let test_checker_rejects () =
  let bad =
    [
      ("not an object", Json.List []);
      ("missing traceEvents", Json.Obj [ ("x", Json.Int 1) ]);
      ( "bad phase",
        Json.Obj
          [
            ( "traceEvents",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.Str "e");
                      ("ph", Json.Str "Z");
                      ("ts", Json.Int 0);
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 0);
                    ];
                ] );
          ] );
      ( "unbalanced span",
        Json.Obj
          [
            ( "traceEvents",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.Str "open");
                      ("ph", Json.Str "B");
                      ("ts", Json.Int 0);
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 0);
                    ];
                ] );
          ] );
      ( "mismatched nesting",
        Json.Obj
          [
            ( "traceEvents",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.Str "a");
                      ("ph", Json.Str "B");
                      ("ts", Json.Int 0);
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 0);
                    ];
                  Json.Obj
                    [
                      ("name", Json.Str "b");
                      ("ph", Json.Str "E");
                      ("ts", Json.Int 1);
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 0);
                    ];
                ] );
          ] );
    ]
  in
  List.iter
    (fun (what, doc) ->
      match Trace.check doc with
      | Ok () -> Alcotest.fail ("accepted: " ^ what)
      | Error _ -> ())
    bad

let test_parallel_trace_deterministic () =
  (* same parallel workload traced twice: after normalization (zeroed
     timestamps and lane ids, events sorted) the lists are equal even
     though wall-clock interleaving and task-to-worker assignment
     differ between runs *)
  let traced () =
    let tr = Trace.create () in
    Exec.Pool.with_pool ~jobs:4 (fun pool ->
        ignore
          (Exec.Pool.map pool
             (fun i ->
               let sink = Some (Sink.make ~trace:tr ()) in
               Sink.span sink
                 ~args:(fun () -> [ ("task", Json.Int i) ])
                 (Printf.sprintf "task-%d" i)
                 (fun () -> Sink.instant sink ~ts:i "work");
               i)
             (List.init 12 Fun.id)));
    Trace.normalize (Trace.events tr)
  in
  let a = traced () and b = traced () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  Alcotest.(check bool) "normalized traces equal" true (a = b)

(* --- heap profiler: drag accounting ------------------------------------ *)

let test_profiler_drag () =
  let p = Profiler.create () in
  Profiler.set_tick p 0;
  Profiler.on_alloc p ~site:"f:malloc#0" ~addr:100 ~bytes:16;
  Profiler.on_alloc p ~site:"f:malloc#0" ~addr:200 ~bytes:16;
  Profiler.set_tick p 10;
  Profiler.on_use p ~addr:100;
  Profiler.on_use p ~addr:200;
  (* object 100 reclaimed promptly; 200 drags for 90 ticks *)
  Profiler.set_tick p 12;
  Profiler.on_free p ~addr:100;
  Profiler.set_tick p 100;
  Profiler.on_free p ~addr:200;
  let r = Profiler.report p in
  Alcotest.(check int) "one site" 1 (List.length r.Profiler.r_sites);
  let s = List.hd r.Profiler.r_sites in
  Alcotest.(check int) "allocs" 2 s.Profiler.s_allocs;
  Alcotest.(check int) "bytes" 32 s.Profiler.s_bytes;
  Alcotest.(check int) "peak live" 32 s.Profiler.s_peak_live;
  Alcotest.(check int) "nothing live at exit" 0 s.Profiler.s_live_at_exit;
  Alcotest.(check int) "total drag" 92 r.Profiler.r_total_drag;
  Alcotest.(check int) "site drag" 92 s.Profiler.s_drag_sum

let test_profiler_drag_monotone () =
  (* the longer reclamation lags behind last use, the larger the drag *)
  let drag_when_freed_at tick =
    let p = Profiler.create () in
    Profiler.set_tick p 0;
    Profiler.on_alloc p ~site:"f:malloc#0" ~addr:64 ~bytes:8;
    Profiler.set_tick p 5;
    Profiler.on_use p ~addr:64;
    Profiler.set_tick p tick;
    Profiler.on_free p ~addr:64;
    (Profiler.report p).Profiler.r_total_drag
  in
  let drags = List.map drag_when_freed_at [ 5; 6; 50; 500; 5000 ] in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "drag nondecreasing in free time" true
    (nondecreasing drags);
  Alcotest.(check int) "freed at last use: zero drag" 0 (List.hd drags)

let test_profiler_live_at_exit () =
  let p = Profiler.create () in
  Profiler.set_tick p 0;
  Profiler.on_alloc p ~site:"g:malloc#0" ~addr:32 ~bytes:24;
  Profiler.set_tick p 40;
  let r = Profiler.report p in
  let s = List.hd r.Profiler.r_sites in
  Alcotest.(check int) "live at exit" 24 s.Profiler.s_live_at_exit;
  Alcotest.(check int) "drag up to exit" 40 s.Profiler.s_drag_sum

let test_site_fn () =
  Alcotest.(check string) "fn part" "cord_cat"
    (Profiler.site_fn "cord_cat:malloc#1");
  Alcotest.(check string) "no colon" "main" (Profiler.site_fn "main")

(* --- cache sessions ----------------------------------------------------- *)

let test_build_sessions_scope () =
  let src = "int main(void) { return 7; }" in
  (* prime the process-wide cache *)
  ignore (Harness.Build.compile Harness.Build.Base src);
  let session = Harness.Build.new_session () in
  ignore (Harness.Build.compile Harness.Build.Base src);
  let s = Harness.Build.session_stats session in
  Alcotest.(check int) "session saw one hit" 1 s.Exec.Cache.hits;
  Alcotest.(check int) "session saw no miss" 0 s.Exec.Cache.misses

let test_compile_telemetry_counters () =
  let src = "int main(void) { return 9; }" in
  let sink = Sink.make () in
  ignore (Harness.Build.compile ~telemetry:sink Harness.Build.Base src);
  ignore (Harness.Build.compile ~telemetry:sink Harness.Build.Base src);
  let snap = Metrics.snapshot sink.Sink.metrics in
  (match Metrics.find snap "build/cache/misses" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "first compile is this sink's miss");
  match Metrics.find snap "build/cache/hits" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "second compile is this sink's hit"

(* --- end to end: instrumented runs -------------------------------------- *)

let loopy_src =
  {|int main(void) {
  int i; char *p;
  for (i = 0; i < 40; i++) {
    p = (char *)malloc(16 + i);
    p[0] = (char)i;
  }
  printf("%d\n", 40);
  return 0;
}|}

let test_traced_run_valid_and_unperturbed () =
  let b = Harness.Build.compile Harness.Build.Safe loopy_src in
  let req = Harness.Request.make ~gc_threshold:128 loopy_src in
  let plain =
    match Harness.Measure.exec req b with
    | Harness.Measure.Ran r -> r
    | o -> Alcotest.fail (Harness.Measure.describe o)
  in
  let tr = Trace.create () in
  let profiler = Profiler.create () in
  let sink = Sink.make ~trace:tr ~profiler () in
  let traced =
    match Harness.Measure.exec ~telemetry:sink req b with
    | Harness.Measure.Ran r -> r
    | o -> Alcotest.fail (Harness.Measure.describe o)
  in
  Alcotest.(check int)
    "cycles identical with telemetry" plain.Harness.Measure.o_cycles
    traced.Harness.Measure.o_cycles;
  Alcotest.(check string)
    "output identical" plain.Harness.Measure.o_output
    traced.Harness.Measure.o_output;
  (match Trace.check (Trace.to_json tr) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace invalid: " ^ e));
  let snap = Metrics.snapshot sink.Sink.metrics in
  (match Metrics.find snap "vm/steps" with
  | Some (Metrics.Counter n) when n > 0 -> ()
  | _ -> Alcotest.fail "vm/steps counted");
  (match Metrics.find snap "vm/gc/collections" with
  | Some (Metrics.Counter n) ->
      Alcotest.(check int) "collections counter matches run info"
        traced.Harness.Measure.o_gc_count n
  | _ -> Alcotest.fail "vm/gc/collections missing");
  let report = Profiler.report profiler in
  Alcotest.(check int) "every allocation attributed" 40
    report.Profiler.r_total_allocs;
  match report.Profiler.r_sites with
  | [ s ] ->
      Alcotest.(check string) "stable site id" "main:malloc#0"
        s.Profiler.s_site
  | l -> Alcotest.fail (Printf.sprintf "expected 1 site, got %d" (List.length l))

let test_site_ids_stable_across_analyses () =
  let sites analysis =
    let b =
      Harness.Build.compile
        ~options:{ Harness.Build.default with Harness.Build.analysis }
        Harness.Build.Safe loopy_src
    in
    let profiler = Profiler.create () in
    let sink = Sink.make ~profiler () in
    (match
       Harness.Measure.exec ~telemetry:sink
         (Harness.Request.make ~gc_threshold:128 loopy_src)
         b
     with
    | Harness.Measure.Ran _ -> ()
    | o -> Alcotest.fail (Harness.Measure.describe o));
    List.map
      (fun s -> s.Profiler.s_site)
      (Profiler.report profiler).Profiler.r_sites
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "site ids join across analysis variants"
    (sites Gcsafe.Mode.A_none) (sites Gcsafe.Mode.A_flow)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects" `Quick test_json_rejects;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "counter/gauge/histogram" `Quick
      test_counter_gauge_histogram;
    Alcotest.test_case "registration idempotent" `Quick
      test_registration_idempotent;
    Alcotest.test_case "scope prefixes" `Quick test_scope_prefixes;
    Alcotest.test_case "disabled registry no-ops" `Quick test_disabled_no_ops;
    Alcotest.test_case "trace valid" `Quick test_trace_valid;
    Alcotest.test_case "span closed on raise" `Quick
      test_trace_span_closed_on_raise;
    Alcotest.test_case "silent sink builds no arguments" `Quick
      test_sink_silent_builds_nothing;
    Alcotest.test_case "checker rejects" `Quick test_checker_rejects;
    Alcotest.test_case "parallel trace deterministic" `Quick
      test_parallel_trace_deterministic;
    Alcotest.test_case "profiler drag" `Quick test_profiler_drag;
    Alcotest.test_case "drag monotone" `Quick test_profiler_drag_monotone;
    Alcotest.test_case "live at exit" `Quick test_profiler_live_at_exit;
    Alcotest.test_case "site_fn" `Quick test_site_fn;
    Alcotest.test_case "build sessions scope" `Quick test_build_sessions_scope;
    Alcotest.test_case "compile telemetry counters" `Quick
      test_compile_telemetry_counters;
    Alcotest.test_case "traced run valid and unperturbed" `Quick
      test_traced_run_valid_and_unperturbed;
    Alcotest.test_case "site ids stable across analyses" `Quick
      test_site_ids_stable_across_analyses;
    Alcotest.test_case "percentile boundaries" `Quick
      test_percentile_boundaries;
  ]
  @ qsuite
      [ test_diff_law; test_percentile_monotone; test_percentile_nearest_rank ]
