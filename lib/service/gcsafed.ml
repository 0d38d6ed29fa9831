(** The service harness.  See the interface for the determinism and
    telemetry contracts. *)

module Build = Harness.Build
module Request = Harness.Request
module Outcome = Harness.Outcome
module Metrics = Telemetry.Metrics
module Json = Telemetry.Json

type config = {
  servers : int;
  queue_capacity : int;
  failure_cost : int;
  build_miss_cost : int;
}

let default_config =
  { servers = 4; queue_capacity = 64; failure_cost = 2000; build_miss_cost = 20000 }

type completion = {
  r_request : Request.t;
  r_outcome : Outcome.t;
  r_arrival : int;
  r_start : int;
  r_finish : int;
  r_cache_hit : bool;
  r_trace_id : int;
  r_queue_wait : int;
  r_build_ticks : int;
  r_vm_ticks : int;
  r_gc_max_pause_words : int;
  r_gc_total_pause_words : int;
}

type t = {
  cfg : config;
  pool : Exec.Pool.t;
  metrics : Metrics.t;
  ring : Telemetry.Flight_recorder.t;
  stream : Telemetry.Stream.t option;
  mutable pending : (int * Request.t) list;  (* reversed *)
  mutable completed : completion list;  (* reversed *)
  mutable last_arrival : int;
  mutable next_trace : int;
  lanes : int array;  (* per-lane virtual finish times *)
  seen : (string, unit) Hashtbl.t;  (* the logical build tier *)
  session : Build.session;  (* build-cache traffic attributable to us *)
  mutable closed : bool;
}

let create ?(pool = Exec.Pool.serial) ?metrics ?recorder_capacity ?events
    ?window cfg =
  let servers = max 1 cfg.servers in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let stream =
    match events with
    | None -> None
    | Some emit -> Some (Telemetry.Stream.create ?window ~metrics ~emit ())
  in
  {
    cfg = { cfg with servers };
    pool;
    metrics;
    ring = Telemetry.Flight_recorder.create ?capacity:recorder_capacity ();
    stream;
    pending = [];
    completed = [];
    last_arrival = 0;
    next_trace = 1;
    lanes = Array.make servers 0;
    seen = Hashtbl.create 64;
    session = Build.new_session ();
    closed = false;
  }

let metrics t = t.metrics

let recorder t = t.ring

let dump t = Telemetry.Flight_recorder.dump t.ring

let is_shut_down t = t.closed

let tick t name = Metrics.incr (Metrics.counter t.metrics name)

let record_class t outcome =
  tick t ("service/outcome/" ^ Outcome.class_name outcome)

(* All ring events are recorded from serial sections (submit and the
   drain simulation), timestamped on the virtual clock, so the ring's
   contents — and the interleaved event lines on the stream — are
   byte-identical across worker counts. *)
let record_ev t ~ts kind args =
  let ev = Telemetry.Flight_recorder.record t.ring ~ts kind args in
  Option.iter (fun s -> Telemetry.Stream.event s ev) t.stream

let reject_completion req arrival detail =
  {
    r_request = req;
    r_outcome = Outcome.Rejected detail;
    r_arrival = arrival;
    r_start = arrival;
    r_finish = arrival;
    r_cache_hit = false;
    r_trace_id = req.Request.trace_id;
    r_queue_wait = 0;
    r_build_ticks = 0;
    r_vm_ticks = 0;
    r_gc_max_pause_words = 0;
    r_gc_total_pause_words = 0;
  }

let submit ?arrival t req =
  let a = max t.last_arrival (Option.value ~default:t.last_arrival arrival) in
  t.last_arrival <- a;
  (* stamp a service-unique trace id unless the caller chose one;
     deliberately outside the cache/matrix keys, so tracing never
     perturbs build sharing *)
  let req =
    if req.Request.trace_id = 0 then begin
      let id = t.next_trace in
      t.next_trace <- t.next_trace + 1;
      { req with Request.trace_id = id }
    end
    else req
  in
  if t.closed then begin
    let c = reject_completion req a "service shut down" in
    t.completed <- c :: t.completed;
    tick t "service/submitted";
    tick t "service/rejected";
    record_class t c.r_outcome;
    record_ev t ~ts:a "reject"
      [
        ("trace_id", Json.Int req.Request.trace_id);
        ("reason", Json.Str "service shut down");
      ]
  end
  else t.pending <- (a, req) :: t.pending

(* An admitted request waiting for (or holding) a lane. *)
type job = {
  j_idx : int;
  j_arrival : int;
  j_cost : int;
  j_request : Request.t;
  j_outcome : Outcome.t;
  j_hit : bool;
  j_build : int;  (* build-tier share of [j_cost] (0 on a hit) *)
  j_vm : int;  (* VM share of [j_cost]; j_build + j_vm = j_cost *)
  j_gc_max_pause : int;  (* largest GC pause inside the request, words *)
  j_gc_total_pause : int;
}

let min_lane lanes =
  let best = ref 0 in
  Array.iteri (fun i f -> if f < lanes.(!best) then best := i) lanes;
  !best

let drain t =
  let batch = List.rev t.pending in
  t.pending <- [];
  if batch <> [] then begin
    (* Speculative execution: every request runs exactly once, under its
       own session-scoped sink, fanned out over the pool; results are
       consumed in submission order, so nothing below depends on the
       worker count. *)
    let executed =
      Exec.Pool.map t.pool
        (fun (_, req) ->
          let m = Metrics.create () in
          let sink = Telemetry.Sink.make ~metrics:m () in
          let o = Outcome.execute ~telemetry:sink req in
          (o, Metrics.snapshot m))
        batch
    in
    let lanes = t.lanes in
    let waiting = Queue.create () in
    let n = List.length batch in
    let out = Array.make n None in
    let latency_h = Metrics.histogram t.metrics "service/latency_ticks" in
    let service_h = Metrics.histogram t.metrics "service/service_ticks" in
    let queue_h = Metrics.histogram t.metrics "service/phase/queue_wait_ticks" in
    let build_h = Metrics.histogram t.metrics "service/phase/build_ticks" in
    let vm_h = Metrics.histogram t.metrics "service/phase/vm_ticks" in
    let gc_pause_h = Metrics.histogram t.metrics "service/gc/max_pause_words" in
    let assign job =
      let l = min_lane lanes in
      let start = max lanes.(l) job.j_arrival in
      let finish = start + job.j_cost in
      lanes.(l) <- finish;
      let queue_wait = start - job.j_arrival in
      Metrics.observe latency_h (finish - job.j_arrival);
      Metrics.observe queue_h queue_wait;
      Metrics.observe build_h job.j_build;
      Metrics.observe vm_h job.j_vm;
      Metrics.observe gc_pause_h job.j_gc_max_pause;
      record_ev t ~ts:finish "request.end"
        [
          ("trace_id", Json.Int job.j_request.Request.trace_id);
          ("class", Json.Str (Outcome.class_name job.j_outcome));
          ("queue_wait", Json.Int queue_wait);
          ("build", Json.Int job.j_build);
          ("vm", Json.Int job.j_vm);
          ("gc_max_pause_words", Json.Int job.j_gc_max_pause);
        ];
      out.(job.j_idx) <-
        Some
          {
            r_request = job.j_request;
            r_outcome = job.j_outcome;
            r_arrival = job.j_arrival;
            r_start = start;
            r_finish = finish;
            r_cache_hit = job.j_hit;
            r_trace_id = job.j_request.Request.trace_id;
            r_queue_wait = queue_wait;
            r_build_ticks = job.j_build;
            r_vm_ticks = job.j_vm;
            r_gc_max_pause_words = job.j_gc_max_pause;
            r_gc_total_pause_words = job.j_gc_total_pause;
          }
    in
    List.iteri
      (fun idx ((arrival, req), (outcome, snap)) ->
        tick t "service/submitted";
        (match t.stream with
        | Some s -> Telemetry.Stream.advance s ~now:arrival
        | None -> ());
        (* lanes that finish by this arrival serve the waiting room first
           (FIFO: nobody overtakes the queue) *)
        while
          (not (Queue.is_empty waiting)) && lanes.(min_lane lanes) <= arrival
        do
          assign (Queue.pop waiting)
        done;
        let key = Request.cache_key req in
        let hit = req.Request.use_cache && Hashtbl.mem t.seen key in
        let base_cost =
          match outcome with
          | Outcome.Ran r -> max 1 r.Harness.Measure.o_cycles
          | _ -> t.cfg.failure_cost
        in
        let cost = base_cost + if hit then 0 else t.cfg.build_miss_cost in
        let lane_free = lanes.(min_lane lanes) <= arrival in
        if lane_free || Queue.length waiting < t.cfg.queue_capacity then begin
          (* admitted: the logical build tier warms on admission, in
             submission order *)
          if req.Request.use_cache then Hashtbl.replace t.seen key ();
          tick t "service/admitted";
          record_class t outcome;
          tick t (if hit then "service/cache/hits" else "service/cache/misses");
          record_ev t ~ts:arrival "request.begin"
            [
              ("trace_id", Json.Int req.Request.trace_id);
              ("cache_hit", Json.Bool hit);
            ];
          (match outcome with
          | Outcome.Ran r when r.Harness.Measure.o_emergency > 0 ->
              record_ev t ~ts:arrival "gc.emergency"
                [
                  ("trace_id", Json.Int req.Request.trace_id);
                  ("count", Json.Int r.Harness.Measure.o_emergency);
                ]
          | _ -> ());
          (match (req.Request.gc_pause_budget, outcome) with
          | Some budget, Outcome.Ran r
            when req.Request.gc_mode = Gcheap.Heap.Inc ->
              (* the request named a pause SLO: every increment within
                 budget is "met"; a single overrun violates it *)
              if r.Harness.Measure.o_inc_overruns > 0 then begin
                tick t "service/slo/violated";
                record_ev t ~ts:arrival "slo.violation"
                  [
                    ("trace_id", Json.Int req.Request.trace_id);
                    ("budget_words", Json.Int budget);
                    ( "overruns",
                      Json.Int r.Harness.Measure.o_inc_overruns );
                    ( "max_pause_words",
                      Json.Int r.Harness.Measure.o_inc_max_pause );
                  ]
              end
              else tick t "service/slo/met"
          | _ -> ());
          Metrics.observe service_h cost;
          Metrics.absorb t.metrics snap;
          let build = if hit then 0 else t.cfg.build_miss_cost in
          let gc_max, gc_total =
            match outcome with
            | Outcome.Ran r ->
                ( r.Harness.Measure.o_gc_max_pause_words,
                  r.Harness.Measure.o_gc_total_pause_words )
            | _ -> (0, 0)
          in
          let job =
            {
              j_idx = idx;
              j_arrival = arrival;
              j_cost = cost;
              j_request = req;
              j_outcome = outcome;
              j_hit = hit;
              j_build = build;
              j_vm = base_cost;
              j_gc_max_pause = gc_max;
              j_gc_total_pause = gc_total;
            }
          in
          if lane_free then assign job else Queue.push job waiting
        end
        else begin
          (* shed: a structured outcome; only the build-tier slice of the
             telemetry is absorbed — the speculative execution really did
             hit the shared artifact cache, and dropping those counters
             is what made the registry's [build/cache/*] disagree with
             the cache's own accounting.  VM/service metrics of a shed
             request stay dropped: the service never served it. *)
          Metrics.absorb t.metrics
            (List.filter
               (fun (name, _) -> String.starts_with ~prefix:"build/" name)
               snap);
          tick t "service/rejected";
          let c =
            reject_completion req arrival
              (Printf.sprintf "queue full (capacity %d)" t.cfg.queue_capacity)
          in
          record_class t c.r_outcome;
          out.(idx) <- Some c
        end)
      (List.combine batch executed);
    (* drain-on-shutdown semantics: everything in the waiting room is
       served before the batch completes *)
    while not (Queue.is_empty waiting) do
      assign (Queue.pop waiting)
    done;
    Array.iter
      (function
        | Some c -> t.completed <- c :: t.completed | None -> assert false)
      out
  end

let shutdown t =
  drain t;
  (match t.stream with
  | None -> ()
  | Some s ->
      let now = Array.fold_left max t.last_arrival t.lanes in
      Telemetry.Stream.finish s ~now);
  t.closed <- true

let completions t = List.rev t.completed

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  rp_submitted : int;
  rp_admitted : int;
  rp_rejected : int;
  rp_outcomes : (string * int) list;
  rp_unexpected : int;
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_makespan : int;
  rp_latency_p50 : int;
  rp_latency_p90 : int;
  rp_latency_p99 : int;
  rp_exact_p50 : int;  (** nearest-rank over the admitted completions *)
  rp_exact_p90 : int;
  rp_exact_p99 : int;
  rp_labels : (string * int) list;
  rp_queue_wait : int;  (** summed queue-wait ticks over admitted requests *)
  rp_build_ticks : int;  (** summed build-tier ticks *)
  rp_vm_ticks : int;  (** summed VM ticks *)
  rp_total_latency : int;  (** summed finish − arrival; equals the three
                               phase sums added together *)
  rp_gc_max_pause_words : int;  (** worst single GC pause across requests *)
  rp_gc_total_pause_words : int;
  rp_slo_met : int;
  rp_slo_violated : int;
}

let unexpected_classes = [ "corruption"; "task-quarantined"; "internal-error" ]

(* The nearest-rank percentile: the ceil(p * n)-th smallest value, with
   the same epsilon and clamping as [Metrics.percentile]; 0 for none. *)
let nearest_rank values p =
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let p = if Float.is_nan p then 0. else Float.min 1. (Float.max 0. p) in
    let rank = Float.to_int (Float.ceil ((Float.of_int n *. p) -. 1e-9)) in
    sorted.(max 1 (min n rank) - 1)

let report t =
  let cs = completions t in
  let tally = Hashtbl.create 16 in
  let labels = Hashtbl.create 16 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let rejected = ref 0 and hits = ref 0 and misses = ref 0 in
  let first_arrival = ref max_int and last_finish = ref 0 in
  let queue_wait = ref 0 and build = ref 0 and vm = ref 0 in
  let total_latency = ref 0 and latencies = ref [] in
  let gc_max = ref 0 and gc_total = ref 0 in
  List.iter
    (fun c ->
      bump tally (Outcome.class_name c.r_outcome);
      bump labels (if c.r_request.Request.label = "" then "(unlabeled)" else c.r_request.Request.label);
      first_arrival := min !first_arrival c.r_arrival;
      last_finish := max !last_finish c.r_finish;
      queue_wait := !queue_wait + c.r_queue_wait;
      build := !build + c.r_build_ticks;
      vm := !vm + c.r_vm_ticks;
      total_latency := !total_latency + (c.r_finish - c.r_arrival);
      gc_max := max !gc_max c.r_gc_max_pause_words;
      gc_total := !gc_total + c.r_gc_total_pause_words;
      match c.r_outcome with
      | Outcome.Rejected _ -> incr rejected
      | _ ->
          latencies := (c.r_finish - c.r_arrival) :: !latencies;
          if c.r_cache_hit then incr hits else incr misses)
    cs;
  let count name = Option.value ~default:0 (Hashtbl.find_opt tally name) in
  let counter name =
    match Metrics.find (Metrics.snapshot t.metrics) name with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let latency p =
    match Metrics.find (Metrics.snapshot t.metrics) "service/latency_ticks" with
    | Some (Metrics.Histogram { buckets; _ }) -> Metrics.percentile buckets p
    | _ -> 0
  in
  {
    rp_submitted = List.length cs;
    rp_admitted = List.length cs - !rejected;
    rp_rejected = !rejected;
    rp_outcomes = List.map (fun name -> (name, count name)) Outcome.all_class_names;
    rp_unexpected =
      List.fold_left (fun acc name -> acc + count name) 0 unexpected_classes;
    rp_cache_hits = !hits;
    rp_cache_misses = !misses;
    rp_makespan = (if cs = [] then 0 else !last_finish - !first_arrival);
    rp_latency_p50 = latency 0.50;
    rp_latency_p90 = latency 0.90;
    rp_latency_p99 = latency 0.99;
    rp_exact_p50 = nearest_rank !latencies 0.50;
    rp_exact_p90 = nearest_rank !latencies 0.90;
    rp_exact_p99 = nearest_rank !latencies 0.99;
    rp_labels =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels []);
    rp_queue_wait = !queue_wait;
    rp_build_ticks = !build;
    rp_vm_ticks = !vm;
    rp_total_latency = !total_latency;
    rp_gc_max_pause_words = !gc_max;
    rp_gc_total_pause_words = !gc_total;
    rp_slo_met = counter "service/slo/met";
    rp_slo_violated = counter "service/slo/violated";
  }

let hit_rate r =
  let total = r.rp_cache_hits + r.rp_cache_misses in
  if total = 0 then 0. else float_of_int r.rp_cache_hits /. float_of_int total

let throughput r =
  if r.rp_makespan = 0 then 0.
  else 1000. *. float_of_int r.rp_admitted /. float_of_int r.rp_makespan

let burn_rate r =
  let total = r.rp_slo_met + r.rp_slo_violated in
  if total = 0 then 0. else float_of_int r.rp_slo_violated /. float_of_int total

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "gcsafed: %d submitted, %d admitted, %d rejected@,"
    r.rp_submitted r.rp_admitted r.rp_rejected;
  Format.fprintf ppf "  outcomes:";
  List.iter (fun (name, n) -> Format.fprintf ppf " %s=%d" name n) r.rp_outcomes;
  Format.fprintf ppf "@,";
  Format.fprintf ppf "  build tier: %d hit(s), %d miss(es), hit rate %.3f@,"
    r.rp_cache_hits r.rp_cache_misses (hit_rate r);
  Format.fprintf ppf "  latency ticks: p50=%d p90=%d p99=%d@," r.rp_latency_p50
    r.rp_latency_p90 r.rp_latency_p99;
  Format.fprintf ppf
    "  phases: queue_wait=%d build=%d vm=%d (total latency %d)@,"
    r.rp_queue_wait r.rp_build_ticks r.rp_vm_ticks r.rp_total_latency;
  Format.fprintf ppf "  gc pause words: max=%d total=%d@,"
    r.rp_gc_max_pause_words r.rp_gc_total_pause_words;
  if r.rp_slo_met + r.rp_slo_violated > 0 then
    Format.fprintf ppf "  slo: met=%d violated=%d burn=%.3f@," r.rp_slo_met
      r.rp_slo_violated (burn_rate r);
  Format.fprintf ppf
    "  makespan %d tick(s), throughput %.3f admitted/ktick@," r.rp_makespan
    (throughput r);
  (match r.rp_labels with
  | [] -> ()
  | labels ->
      Format.fprintf ppf "  traffic:";
      List.iter (fun (name, n) -> Format.fprintf ppf " %s=%d" name n) labels;
      Format.fprintf ppf "@,");
  Format.fprintf ppf "  unexpected: %d@," r.rp_unexpected;
  Format.fprintf ppf "@]"

let report_to_json ?wall_s t =
  let r = report t in
  (* session-scoped: only the build traffic this service instance caused,
     so the numbers agree with the absorbed [build/cache/*] counters in
     [metrics] instead of picking up unrelated process-wide traffic *)
  let cache = Build.session_stats t.session in
  let base =
    [
      ("submitted", Json.Int r.rp_submitted);
      ("admitted", Json.Int r.rp_admitted);
      ("rejected", Json.Int r.rp_rejected);
      ( "outcomes",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) r.rp_outcomes)
      );
      ("unexpected", Json.Int r.rp_unexpected);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int r.rp_cache_hits);
            ("misses", Json.Int r.rp_cache_misses);
            ("hit_rate", Json.Float (hit_rate r));
          ] );
      ( "build_cache",
        Json.Obj
          [
            ("hits", Json.Int cache.Exec.Cache.hits);
            ("misses", Json.Int cache.Exec.Cache.misses);
            ("corruptions", Json.Int cache.Exec.Cache.corruptions);
            ("entries", Json.Int cache.Exec.Cache.entries);
          ] );
      ( "latency_ticks",
        Json.Obj
          [
            ("p50", Json.Int r.rp_latency_p50);
            ("p90", Json.Int r.rp_latency_p90);
            ("p99", Json.Int r.rp_latency_p99);
          ] );
      ( "latency_ticks_exact",
        Json.Obj
          [
            ("p50", Json.Int r.rp_exact_p50);
            ("p90", Json.Int r.rp_exact_p90);
            ("p99", Json.Int r.rp_exact_p99);
          ] );
      ("makespan_ticks", Json.Int r.rp_makespan);
      ("throughput_per_ktick", Json.Float (throughput r));
      ( "phases",
        Json.Obj
          [
            ("queue_wait", Json.Int r.rp_queue_wait);
            ("build", Json.Int r.rp_build_ticks);
            ("vm", Json.Int r.rp_vm_ticks);
            ("total_latency", Json.Int r.rp_total_latency);
          ] );
      ( "gc_pause_words",
        Json.Obj
          [
            ("max", Json.Int r.rp_gc_max_pause_words);
            ("total", Json.Int r.rp_gc_total_pause_words);
          ] );
      ( "slo",
        Json.Obj
          [
            ("met", Json.Int r.rp_slo_met);
            ("violated", Json.Int r.rp_slo_violated);
            ("burn_rate", Json.Float (burn_rate r));
          ] );
      ( "flight_recorder",
        Json.Obj
          [
            ( "capacity",
              Json.Int (Telemetry.Flight_recorder.capacity t.ring) );
            ( "recorded",
              Json.Int (Telemetry.Flight_recorder.recorded t.ring) );
            ("dropped", Json.Int (Telemetry.Flight_recorder.dropped t.ring));
          ] );
      ( "traffic",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) r.rp_labels) );
    ]
  in
  let wall =
    match wall_s with
    | None -> []
    | Some s ->
        [
          ( "wall",
            Json.Obj
              [
                ("seconds", Json.Float s);
                ( "requests_per_s",
                  Json.Float
                    (if s > 0. then float_of_int r.rp_submitted /. s else 0.) );
              ] );
        ]
  in
  Json.Obj (base @ wall @ [ ("metrics", Metrics.to_json (Metrics.snapshot t.metrics)) ])
