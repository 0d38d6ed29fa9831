(* The observability plane: flight-recorder ring wraparound and dump
   validation, worker-count determinism of service dumps and event
   streams, the windowed-stream merge law, heap-census invariants,
   per-request phase accounting, pause-budget response of the pause
   metric, pinned VM flight-recorder dumps, and supervised-pool anomaly
   events. *)

module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Flight = Telemetry.Flight_recorder
module Stream = Telemetry.Stream
module Request = Harness.Request
module Gcsafed = Service.Gcsafed
module Trafficgen = Service.Trafficgen

(* --- flight recorder: ring wraparound (qcheck) -------------------------- *)

let test_ring_wraparound =
  QCheck.Test.make ~name:"ring wraparound keeps the last [capacity] events"
    ~count:200
    QCheck.(pair (int_range 1 48) (int_range 0 200))
    (fun (capacity, n) ->
      let r = Flight.create ~capacity () in
      let returned_ok = ref true in
      for i = 0 to n - 1 do
        let ev = Flight.record r ~ts:(i * 3) "ev" [ ("i", Json.Int i) ] in
        if ev.Flight.fr_ordinal <> i then returned_ok := false
      done;
      let evs = Flight.events r in
      let dropped = max 0 (n - capacity) in
      !returned_ok
      && Flight.recorded r = n
      && Flight.dropped r = dropped
      && List.length evs = min n capacity
      && List.mapi (fun k e -> e.Flight.fr_ordinal = dropped + k) evs
         |> List.for_all Fun.id
      && Flight.check (Flight.dump r) = Ok ())

let test_dump_check_rejects_tampering () =
  let r = Flight.create ~capacity:4 () in
  for i = 0 to 9 do
    ignore (Flight.record r ~ts:i "ev" [])
  done;
  let doc = Flight.dump r in
  Alcotest.(check bool) "is_dump" true (Flight.is_dump doc);
  (match Flight.check doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("honest dump rejected: " ^ e));
  let tamper f =
    match doc with
    | Json.Obj [ ("flightRecorder", Json.Obj fields) ] ->
        Json.Obj [ ("flightRecorder", Json.Obj (f fields)) ]
    | _ -> Alcotest.fail "unexpected dump shape"
  in
  let bad =
    [
      ( "recorded count lies",
        tamper
          (List.map (function
            | "recorded", _ -> ("recorded", Json.Int 3)
            | kv -> kv)) );
      ( "an event deleted",
        tamper
          (List.map (function
            | "events", Json.List (_ :: rest) -> ("events", Json.List rest)
            | kv -> kv)) );
      ( "ordinal gap",
        tamper
          (List.map (function
            | "events", Json.List evs ->
                ( "events",
                  Json.List
                    (List.mapi
                       (fun k ev ->
                         match (k, ev) with
                         | 2, Json.Obj fields ->
                             Json.Obj
                               (List.map
                                  (function
                                    | "ordinal", Json.Int o ->
                                        ("ordinal", Json.Int (o + 1))
                                    | kv -> kv)
                                  fields)
                         | _ -> ev)
                       evs) )
            | kv -> kv)) );
    ]
  in
  List.iter
    (fun (what, doc) ->
      match Flight.check doc with
      | Ok () -> Alcotest.fail ("accepted: " ^ what)
      | Error _ -> ())
    bad

(* --- service: dump and event stream identical across --jobs ------------- *)

let observe_bomb spec jobs =
  let lines = Buffer.create 1024 in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let t =
        Gcsafed.create ~pool
          ~events:(fun line ->
            Buffer.add_string lines (Json.to_string line);
            Buffer.add_char lines '\n')
          ~window:200_000 Gcsafed.default_config
      in
      List.iter
        (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
        (Trafficgen.generate spec);
      Gcsafed.shutdown t;
      (Json.to_string (Gcsafed.dump t), Buffer.contents lines))

let test_dump_and_stream_jobs_identity () =
  let spec =
    {
      Trafficgen.default_spec with
      Trafficgen.g_requests = 30;
      g_seed = 7;
      g_mix = Trafficgen.Generated;
      g_chaos_percent = 25;
    }
  in
  (* warm the process-wide build cache first: the absorbed
     [build/cache/*] counters reflect physical cache state, which is
     process history, not a worker-count effect *)
  ignore (observe_bomb spec 1);
  let dump1, stream1 = observe_bomb spec 1 in
  let dump4, stream4 = observe_bomb spec 4 in
  Alcotest.(check string) "flight dump identical across --jobs" dump1 dump4;
  Alcotest.(check string) "event stream identical across --jobs" stream1
    stream4;
  (match Json.parse dump1 with
  | Ok doc -> (
      match Flight.check doc with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("service dump invalid: " ^ e))
  | Error e -> Alcotest.fail e);
  (* every window line carries a burn rate, even when no SLO fired *)
  let window_lines =
    String.split_on_char '\n' stream1
    |> List.filter_map (fun l ->
           if l = "" then None
           else
             match Json.parse l with
             | Ok (Json.Obj _ as doc)
               when Json.member "type" doc = Some (Json.Str "window") ->
                 Some doc
             | _ -> None)
  in
  Alcotest.(check bool) "at least one window emitted" true
    (window_lines <> []);
  List.iter
    (fun w ->
      match Json.member "burn_rate" w with
      | Some (Json.Float _) | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "window line missing burn_rate")
    window_lines

(* --- stream: the window merge law (qcheck) ------------------------------ *)

let ops_gen =
  (* (instrument kind, value, clock advance) *)
  QCheck.(list_of_size Gen.(int_range 0 40) (triple (int_range 0 2) small_nat (int_range 0 30)))

let apply_op m (kind, v, _) =
  match kind with
  | 0 -> Metrics.add (Metrics.counter m "c") v
  | 1 -> Metrics.set (Metrics.gauge m "g") v
  | _ -> Metrics.observe (Metrics.histogram m "h") v

let test_window_merge_law =
  QCheck.Test.make
    ~name:"folding merge over stream windows equals the whole-run diff"
    ~count:200
    QCheck.(pair ops_gen ops_gen)
    (fun (before, interval) ->
      let m = Metrics.create () in
      List.iter (apply_op m) before;
      let s0 = Metrics.snapshot m in
      let s = Stream.create ~window:16 ~metrics:m ~emit:ignore () in
      let now = ref 0 in
      List.iter
        (fun ((_, _, gap) as op) ->
          apply_op m op;
          now := !now + gap;
          Stream.advance s ~now:!now)
        interval;
      Stream.finish s ~now:!now;
      let merged =
        match Stream.windows s with
        | [] -> []
        | w :: ws -> List.fold_left Metrics.merge w ws
      in
      let whole = Metrics.diff (Metrics.snapshot m) s0 in
      Json.to_string (Metrics.to_json merged)
      = Json.to_string (Metrics.to_json whole))

(* A run ending exactly on a window boundary: the delta recorded at that
   tick must still reach the merged windows. *)
let test_finish_on_window_boundary () =
  let m = Metrics.create () in
  let x = Metrics.counter m "x" in
  let s0 = Metrics.snapshot m in
  let s = Stream.create ~window:16 ~metrics:m ~emit:ignore () in
  Metrics.incr x;
  Stream.advance s ~now:16;
  Metrics.incr x;
  Stream.advance s ~now:16;
  Stream.finish s ~now:16;
  let merged =
    match Stream.windows s with
    | [] -> []
    | w :: ws -> List.fold_left Metrics.merge w ws
  in
  let whole = Metrics.diff (Metrics.snapshot m) s0 in
  Alcotest.(check string) "whole-run diff" "{\"x\":2}"
    (Json.to_string (Metrics.to_json whole));
  Alcotest.(check string) "merged windows equal the whole run"
    (Json.to_string (Metrics.to_json whole))
    (Json.to_string (Metrics.to_json merged))

(* --- heap census --------------------------------------------------------- *)

let test_census_invariants_direct () =
  let h = Gcheap.Heap.create () in
  let addrs = List.init 120 (fun i -> Gcheap.Heap.alloc h (8 + (8 * (i mod 6)))) in
  ignore addrs;
  let c = Gcheap.Census.take h in
  Alcotest.(check bool) "live <= committed" true
    (c.Gcheap.Census.cn_live_words <= c.Gcheap.Census.cn_committed_words);
  Alcotest.(check int) "free-page pool idle without ceiling pressure" 0
    c.Gcheap.Census.cn_free_pages;
  Alcotest.(check int) "no free-page runs either" 0
    c.Gcheap.Census.cn_free_page_runs;
  Alcotest.(check bool) "dirty cards bounded by total cards" true
    (c.Gcheap.Census.cn_dirty_cards <= c.Gcheap.Census.cn_cards);
  let frag = Gcheap.Census.fragmentation c in
  Alcotest.(check bool) "fragmentation in [0,1]" true
    (frag >= 0.0 && frag <= 1.0);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "class %d: allocated <= slots" row.Gcheap.Census.cr_size)
        true
        (row.Gcheap.Census.cr_allocated <= row.Gcheap.Census.cr_slots))
    c.Gcheap.Census.cn_classes

let churn_src =
  {|int main(void) {
  int i; char *p;
  for (i = 0; i < 120; i++) {
    p = (char *)malloc(16 + (i % 40));
    p[0] = (char)i;
  }
  printf("%d\n", 120);
  return 0;
}|}

let test_census_sampled_per_collection () =
  let b = Harness.Build.compile Harness.Build.Safe churn_src in
  (* no final_collect: the exit-time collection samples a census too,
     which would make the count one more than [o_gc_count] *)
  let req = Request.make ~gc_threshold:256 churn_src in
  match Harness.Measure.exec ~census:true req b with
  | Harness.Measure.Ran r ->
      let censuses = r.Harness.Measure.o_census in
      Alcotest.(check int) "one census per collection"
        r.Harness.Measure.o_gc_count (List.length censuses);
      Alcotest.(check bool) "collections actually ran" true
        (r.Harness.Measure.o_gc_count > 0);
      List.iter
        (fun c ->
          Alcotest.(check bool) "live <= committed" true
            (c.Gcheap.Census.cn_live_words
            <= c.Gcheap.Census.cn_committed_words))
        censuses;
      let ords = List.map (fun c -> c.Gcheap.Census.cn_collections) censuses in
      Alcotest.(check bool) "collection ordinals strictly increasing" true
        (List.for_all2 ( < ) (0 :: ords) (ords @ [ max_int ]) || ords = []);
      (* the wire rendering parses back *)
      List.iter
        (fun c ->
          match Json.parse (Json.to_string (Harness.Measure.census_to_json c)) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("census JSON invalid: " ^ e))
        censuses
  | o -> Alcotest.fail (Harness.Measure.describe o)

(* --- phase accounting ---------------------------------------------------- *)

(* Generated bombardments with chaos: every completion's phases sum to
   its end-to-end latency exactly, and so do the report totals; the
   flight recorder drops nothing at its default capacity, every window
   line of the event stream carries a burn rate, and the dump
   validates. *)
let test_phase_identity () =
  List.iter
    (fun (requests, seed) ->
      let what = Printf.sprintf "%d requests, seed %d" requests seed in
      let windows = ref 0 and burn_missing = ref 0 in
      let t =
        Gcsafed.create
          ~events:(fun line ->
            if Json.member "type" line = Some (Json.Str "window") then begin
              incr windows;
              if Json.member "burn_rate" line = None then incr burn_missing
            end)
          Gcsafed.default_config
      in
      List.iter
        (fun (arrival, req) -> Gcsafed.submit ~arrival t req)
        (Trafficgen.generate
           {
             Trafficgen.default_spec with
             Trafficgen.g_requests = requests;
             g_seed = seed;
             g_mix = Trafficgen.Generated;
             g_chaos_percent = 20;
           });
      Gcsafed.shutdown t;
      List.iter
        (fun c ->
          Alcotest.(check int)
            (Printf.sprintf "%s, trace %d: queue_wait + build + vm = latency"
               what c.Gcsafed.r_trace_id)
            (c.Gcsafed.r_finish - c.Gcsafed.r_arrival)
            (c.Gcsafed.r_queue_wait + c.Gcsafed.r_build_ticks
           + c.Gcsafed.r_vm_ticks))
        (Gcsafed.completions t);
      let r = Gcsafed.report t in
      Alcotest.(check int)
        (what ^ ": report totals obey the same identity")
        r.Gcsafed.rp_total_latency
        (r.Gcsafed.rp_queue_wait + r.Gcsafed.rp_build_ticks
       + r.Gcsafed.rp_vm_ticks);
      Alcotest.(check int) (what ^ ": ring drops") 0
        (Flight.dropped (Gcsafed.recorder t));
      Alcotest.(check bool) (what ^ ": window lines emitted") true
        (!windows > 0);
      Alcotest.(check int) (what ^ ": window lines without burn_rate") 0
        !burn_missing;
      match Flight.check (Gcsafed.dump t) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: dump invalid: %s" what e)
    [ (40, 13); (120, 3) ]

let test_trace_ids_dense_and_stamped () =
  let t = Gcsafed.create Gcsafed.default_config in
  for _ = 1 to 5 do
    Gcsafed.submit t (Request.make "int main(void) { return 0; }")
  done;
  Gcsafed.drain t;
  let ids = List.map (fun c -> c.Gcsafed.r_trace_id) (Gcsafed.completions t) in
  Alcotest.(check (list int)) "submit stamps 1..n in order" [ 1; 2; 3; 4; 5 ]
    ids

(* The pause measure that responds to the budget: the same request under
   a tighter incremental pause budget must show a strictly smaller
   worst-case pause, while tick latency stays identical (the ablation
   invariant: cycles don't depend on the budget).  The workload needs a
   real live graph — on trivially small heaps every pause is the atomic
   root scan, which no budget can shrink. *)
let test_pause_metric_responds_to_budget () =
  let run budget =
    let t = Gcsafed.create Gcsafed.default_config in
    Gcsafed.submit t
      (Request.make ~gc_mode:Gcheap.Heap.Inc ~gc_pause_budget:budget
         Workloads.Registry.cordtest.Workloads.Registry.w_source);
    Gcsafed.shutdown t;
    Gcsafed.report t
  in
  let tight = run 64 and loose = run 1024 in
  Alcotest.(check bool) "worst pause responds to the budget" true
    (tight.Gcsafed.rp_gc_max_pause_words
    < loose.Gcsafed.rp_gc_max_pause_words);
  Alcotest.(check int) "tick latency is pause-budget-invariant"
    loose.Gcsafed.rp_total_latency tight.Gcsafed.rp_total_latency;
  Alcotest.(check bool) "tight budget overruns surface as SLO burn" true
    (Gcsafed.burn_rate tight > Gcsafed.burn_rate loose);
  (* the paper suite through one service per budget (threshold 16384):
     the worst pause moves with the budget, tick latency does not, and
     the phases sum to the latency in every row *)
  let rows =
    List.map
      (fun budget -> Gcsafed.report (Util.serve_paper_suite ~budget))
      [ 64; 256; 1024; 4096 ]
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "paper suite: phases sum to latency"
        r.Gcsafed.rp_total_latency
        (r.Gcsafed.rp_queue_wait + r.Gcsafed.rp_build_ticks
       + r.Gcsafed.rp_vm_ticks))
    rows;
  let distinct f = List.sort_uniq compare (List.map f rows) in
  Alcotest.(check bool) "paper suite: worst pause responds to the budget" true
    (List.length (distinct (fun r -> r.Gcsafed.rp_gc_max_pause_words)) >= 2);
  Alcotest.(check (list int)) "paper suite: one tick latency for every budget"
    [ 31624412 ]
    (distinct (fun r -> r.Gcsafed.rp_total_latency))

(* Attaching the whole plane (metrics, flight recorder, heap census)
   moves no cycle of any paper workload. *)
let test_full_plane_unperturbed () =
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      let name = w.Workloads.Registry.w_name in
      let req =
        Request.make ~gc_threshold:Util.gate_threshold
          w.Workloads.Registry.w_source
      in
      let plain = Util.ran name (Util.exec req) in
      let observed =
        Util.ran name
          (Util.exec
             ~telemetry:
               (Telemetry.Sink.make ~metrics:(Metrics.create ())
                  ~recorder:(Flight.create ()) ())
             ~census:true req)
      in
      Alcotest.(check int) (name ^ ": cycles with the plane attached")
        plain.Harness.Measure.o_cycles observed.Harness.Measure.o_cycles)
    Workloads.Registry.paper_suite

(* --- collector counters mirror the heap ------------------------------ *)

(* Every [vm/gc/] counter that mirrors a heap statistic, and the field. *)
let heap_mirrored =
  Gcheap.Heap.
    [
      ("vm/gc/collections", fun s -> s.collections);
      ("vm/gc/minor/collections", fun s -> s.minor_collections);
      ("vm/gc/emergency_collections", fun s -> s.emergency_collections);
      ("vm/gc/injected_failures", fun s -> s.injected_failures);
      ("vm/gc/promotions", fun s -> s.promoted);
      ("vm/gc/cards_scanned", fun s -> s.cards_scanned);
      ("vm/gc/words_scanned", fun s -> s.words_scanned);
      ("vm/gc/objects_freed", fun s -> s.objects_freed);
      ("vm/gc/bytes_freed", fun s -> s.bytes_freed);
      ("vm/gc/incremental/increments", fun s -> s.increments);
      ("vm/gc/incremental/final_marks", fun s -> s.final_marks);
      ("vm/gc/incremental/budget_overruns", fun s -> s.budget_overruns);
      ("vm/gc/incremental/barrier_grays", fun s -> s.barrier_grays);
    ]

(* Each paper workload under every collector mode at the gate threshold,
   and cordtest's collect-expand path at the smallest heap limit it
   completes under (38911 words exhausts the heap, leaving no result):
   the metrics agree with the heap's own statistics. *)
let test_counters_mirror_heap () =
  let check what ?(heap_limit = 0) gc_mode (w : Workloads.Registry.workload) =
    let b =
      Harness.Build.compile Harness.Build.Safe w.Workloads.Registry.w_source
    in
    let metrics = Metrics.create () in
    let config =
      {
        (Machine.Vm.default_config ()) with
        Machine.Vm.vm_heap =
          {
            Gcheap.Heap.default_config with
            Gcheap.Heap.mode = gc_mode;
            gc_threshold = Util.gate_threshold;
            heap_limit_words = heap_limit;
          };
        vm_final_collect = true;
        vm_telemetry = Some (Telemetry.Sink.make ~metrics ());
      }
    in
    let r = Machine.Vm.run ~config b.Harness.Build.b_ir in
    let snap = Metrics.snapshot metrics in
    List.iter
      (fun (name, field) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s" what name)
          (field r.Machine.Vm.r_heap) (Util.counter snap name))
      heap_mirrored
  in
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      List.iter
        (fun mode ->
          check
            (w.Workloads.Registry.w_name ^ " " ^ Gcheap.Heap.gc_mode_name mode)
            mode w)
        Gcheap.Heap.[ Stw; Gen; Inc ])
    Workloads.Registry.paper_suite;
  check "cordtest heap limit 38912" ~heap_limit:38912 Gcheap.Heap.Stw
    Workloads.Registry.cordtest

(* --- VM flight-recorder dumps ------------------------------------------ *)

(* One VM run's flight-recorder dump, pinned as its event count, the md5
   of the whole dump and its last three events. *)
let vm_dump req =
  let recorder = Flight.create () in
  ignore (Util.exec ~telemetry:(Telemetry.Sink.make ~recorder ()) req);
  let doc = Flight.dump recorder in
  (match Flight.check doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dump invalid: %s" e);
  let evs = Flight.events recorder in
  let tail = List.filteri (fun i _ -> i >= List.length evs - 3) evs in
  String.concat "\n"
    (Printf.sprintf "%d %s" (Flight.recorded recorder)
       (Digest.to_hex (Digest.string (Json.to_string doc)))
    :: List.map (fun e -> Json.to_string (Flight.event_to_json e)) tail)

let test_vm_dumps_pinned () =
  let gated ?max_instrs gc_mode (w : Workloads.Registry.workload) =
    Request.make ~gc_mode ?max_instrs ~gc_threshold:Util.gate_threshold
      w.Workloads.Registry.w_source
  in
  let pin what req expected =
    Alcotest.(check string) what expected (vm_dump req)
  in
  pin "gen run" (gated Gcheap.Heap.Gen Workloads.Registry.cordtest)
    {|86 e2e80cb205401f755cea020fdb9776bf
{"ordinal":83,"ts":14884870,"kind":"gc.end","args":{"trigger":"auto","gen":"minor","pause_words":698}}
{"ordinal":84,"ts":14890187,"kind":"gc.begin","args":{"trigger":"auto","gen":"minor"}}
{"ordinal":85,"ts":14890187,"kind":"gc.end","args":{"trigger":"auto","gen":"minor","pause_words":782}}|};
  pin "inc run" (gated Gcheap.Heap.Inc Workloads.Registry.cordtest)
    {|29 89a33cc54a10cfa3d7fec3c9d2168863
{"ordinal":26,"ts":14885235,"kind":"gc.step","args":{"spent_words":1021,"completed":0}}
{"ordinal":27,"ts":14885272,"kind":"gc.step","args":{"spent_words":1023,"completed":0}}
{"ordinal":28,"ts":14885329,"kind":"gc.step","args":{"spent_words":957,"completed":1}}|};
  pin "fault"
    (Request.make ~config:Harness.Build.Base
       ~schedule:(Machine.Schedule.at_list [ 7 ])
       Stress.Corpus.hazard.Stress.Corpus.t_source)
    {|5 63b3a482ed1f5a9f49972c3c4181adcc
{"ordinal":2,"ts":7,"kind":"gc.begin","args":{"trigger":"forced","gen":"major"}}
{"ordinal":3,"ts":7,"kind":"gc.end","args":{"trigger":"forced","gen":"major","pause_words":6}}
{"ordinal":4,"ts":8,"kind":"vm.fault","args":{"msg":"GC safety violation: load of 1 byte(s) at 0x43005 hits unallocated or collected memory"}}|};
  pin "step-limit trap"
    (gated ~max_instrs:200_000 Gcheap.Heap.Gen Workloads.Registry.cfrac)
    {|49 2416a6aeadf419ddb7b0bbe00641eea8
{"ordinal":46,"ts":195922,"kind":"gc.begin","args":{"trigger":"auto","gen":"minor"}}
{"ordinal":47,"ts":195922,"kind":"gc.end","args":{"trigger":"auto","gen":"minor","pause_words":388}}
{"ordinal":48,"ts":200001,"kind":"vm.trap","args":{"kind":"step-limit","msg":"instruction budget exceeded (200000 steps)"}}|}

(* --- sharded counters ---------------------------------------------------- *)

let test_sharded_counters_merge_on_snapshot () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hot" in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Exec.Pool.map pool
           (fun i ->
             for _ = 1 to 100 do
               Metrics.incr c
             done;
             i)
           (List.init 40 Fun.id)));
  match Metrics.find (Metrics.snapshot m) "hot" with
  | Some (Metrics.Counter 4000) -> ()
  | Some (Metrics.Counter n) ->
      Alcotest.failf "lost updates: expected 4000, got %d" n
  | _ -> Alcotest.fail "counter missing"

(* --- supervised pool anomaly events -------------------------------------- *)

let flaky ctx i =
  if i = 3 then raise (Exec.Pool.Crash "injected")
  else if i mod 2 = 0 && ctx.Exec.Pool.attempt = 1 then
    raise (Exec.Pool.Transient "wobble")
  else i * 10

let supervised_dump jobs =
  Exec.Pool.with_pool ~jobs (fun pool ->
      let recorder = Flight.create () in
      let outcomes, _ =
        Exec.Pool.map_supervised pool ~recorder flaky (List.init 8 Fun.id)
      in
      (outcomes, Flight.events recorder, Json.to_string (Flight.dump recorder)))

let test_pool_recorder_events () =
  let outcomes, events, dump = supervised_dump 1 in
  let kinds = List.map (fun e -> (e.Flight.fr_ts, e.Flight.fr_kind)) events in
  (* even indexes 0,2,4,6 retried; 3 quarantined *)
  Alcotest.(check (list (pair int string)))
    "retries and the quarantine, input-ordered"
    [
      (0, "pool.retry");
      (2, "pool.retry");
      (3, "pool.quarantine");
      (4, "pool.retry");
      (6, "pool.retry");
    ]
    kinds;
  (match List.nth outcomes 3 with
  | Exec.Pool.Quarantined _ -> ()
  | _ -> Alcotest.fail "index 3 should be quarantined");
  let _, _, dump4 = supervised_dump 4 in
  Alcotest.(check string) "pool dump identical across --jobs" dump dump4

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "dump check rejects tampering" `Quick
      test_dump_check_rejects_tampering;
    Alcotest.test_case "service dump and stream identical across --jobs"
      `Quick test_dump_and_stream_jobs_identity;
    Alcotest.test_case "census invariants (direct)" `Quick
      test_census_invariants_direct;
    Alcotest.test_case "census sampled per collection" `Quick
      test_census_sampled_per_collection;
    Alcotest.test_case "phase identity" `Quick test_phase_identity;
    Alcotest.test_case "trace ids dense and stamped" `Quick
      test_trace_ids_dense_and_stamped;
    Alcotest.test_case "pause metric responds to budget" `Quick
      test_pause_metric_responds_to_budget;
    Alcotest.test_case "sharded counters merge on snapshot" `Quick
      test_sharded_counters_merge_on_snapshot;
    Alcotest.test_case "pool recorder events" `Quick test_pool_recorder_events;
    Alcotest.test_case "stream finish on a window boundary keeps its deltas"
      `Quick test_finish_on_window_boundary;
    Alcotest.test_case "collector counters mirror the heap" `Quick
      test_counters_mirror_heap;
    Alcotest.test_case "VM flight-recorder dumps pinned" `Quick
      test_vm_dumps_pinned;
    Alcotest.test_case "full plane leaves paper-suite cycles identical" `Quick
      test_full_plane_unperturbed;
  ]
  @ qsuite [ test_ring_wraparound; test_window_merge_law ]
