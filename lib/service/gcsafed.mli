(** [gcsafed]: the long-running service harness.

    A service accepts a stream of {!Harness.Request.t} values — each a
    complete (source, config, machine, analysis, gc mode, heap limit,
    OOM policy, failpoint, schedule) tuple — and executes every one of
    them over a worker pool, against the shared single-flight build
    cache, under admission control on a bounded queue.  Every submitted
    request ends in exactly one structured {!Harness.Outcome.t}; a full
    queue yields a [Rejected] outcome (never an unbounded queue, never a
    dropped request), which is the service-level spelling of the
    robustness identity.

    {b Determinism.}  Reports are a function of the submitted traffic
    alone, not of the worker count or wall-clock: arrivals and service
    times live on a virtual tick clock.  Every request is executed
    exactly once (speculatively, fanned out over the pool, results
    consumed in submission order), and admission, queueing delay and
    latency are then derived by simulating an M/c/K queue in virtual
    time — [servers] lanes and a bounded FIFO — where a request's
    service cost is its measured cycle count (or [failure_cost] for a
    non-[Ran] outcome) plus [build_miss_cost] on a logical cache miss.
    A logical miss is the first admission of a cache key in submission
    order ([use_cache = false] requests always miss).  The same traffic
    therefore produces byte-identical reports under [--jobs 1] and
    [--jobs 8].

    {b Telemetry.}  Each request executes against its own fresh
    session-scoped {!Telemetry.Sink} (no process-global registry is
    touched); the snapshots of admitted requests are then absorbed into
    the service's registry in submission order via
    {!Telemetry.Metrics.absorb}.  Rejected requests leave no trace in
    the service registry.

    {b Observability.}  The service keeps a {!Telemetry.Flight_recorder}
    ring of structured events ([request.begin]/[request.end], [reject],
    [slo.violation], [gc.emergency]) timestamped on the virtual clock
    and recorded only from serial sections, so dumps are byte-identical
    across worker counts.  When [create ~events] is given, a
    {!Telemetry.Stream} interleaves those events with windowed metric
    snapshots (JSON lines) on the same virtual clock.  Every admitted
    request carries a trace id (stamped at {!submit} when the caller
    left it 0) and its completion a per-phase latency breakdown:
    [r_queue_wait + r_build_ticks + r_vm_ticks = r_finish - r_arrival].

    Tick latency is deliberately pause-budget-invariant: a request's
    VM share is its measured cycle count, and cycle counts are
    bit-identical across GC modes and pause budgets by construction
    (the ablation invariant).  The pause measure that {e does} respond
    to [--gc-pause-budget] is [r_gc_max_pause_words] — the largest
    single GC pause inside the request on the deterministic
    words-of-work clock. *)

type config = {
  servers : int;  (** virtual service lanes (the M/c/K's c) *)
  queue_capacity : int;
      (** bounded waiting room; a request arriving when all lanes are
          busy and the room is full is shed as [Rejected] *)
  failure_cost : int;
      (** virtual ticks charged for a request whose outcome carries no
          cycle count (faults, source errors, ...) *)
  build_miss_cost : int;
      (** virtual ticks added to the first admission of each cache key
          (the build-tier cost a hit avoids) *)
}

val default_config : config
(** 4 lanes, a 64-request waiting room, 2000-tick failure cost,
    20000-tick build cost. *)

type t

val create :
  ?pool:Exec.Pool.t ->
  ?metrics:Telemetry.Metrics.t ->
  ?recorder_capacity:int ->
  ?events:(Telemetry.Json.t -> unit) ->
  ?window:int ->
  config ->
  t
(** [pool] fans request execution out (default serial — reports do not
    depend on it); [metrics] is the service registry absorbing
    per-request telemetry (default a fresh enabled registry);
    [recorder_capacity] sizes the flight-recorder ring (default
    {!Telemetry.Flight_recorder.default_capacity}); [events], when
    given, receives the JSON-lines stream (event lines plus windowed
    metric snapshots every [window] virtual ticks, default
    {!Telemetry.Stream.default_window}). *)

val metrics : t -> Telemetry.Metrics.t

val recorder : t -> Telemetry.Flight_recorder.t

val dump : t -> Telemetry.Json.t
(** {!Telemetry.Flight_recorder.dump} of the service ring — validates
    under {!Telemetry.Flight_recorder.check}. *)

val submit : ?arrival:int -> t -> Harness.Request.t -> unit
(** Enqueue a request arriving at virtual time [arrival] (default: the
    previous arrival; arrivals are clamped monotonically non-decreasing).
    After {!shutdown}, submissions complete immediately as [Rejected]. *)

val drain : t -> unit
(** Execute everything submitted so far and classify every request into
    a completion.  Queue state (lane clocks, the logical cache) persists
    across drains, so [submit]/[drain] cycles compose. *)

val shutdown : t -> unit
(** {!drain} the in-flight requests — every one completes — then close
    the service.  Idempotent. *)

val is_shut_down : t -> bool

type completion = {
  r_request : Harness.Request.t;
  r_outcome : Harness.Outcome.t;
  r_arrival : int;
  r_start : int;  (** = [r_arrival] for rejected requests *)
  r_finish : int;
  r_cache_hit : bool;  (** logical build-tier hit *)
  r_trace_id : int;  (** the id stamped at {!submit} (or caller-chosen) *)
  r_queue_wait : int;  (** [r_start - r_arrival] *)
  r_build_ticks : int;  (** build-tier share: [build_miss_cost] on a
                            logical miss, 0 on a hit or rejection *)
  r_vm_ticks : int;  (** VM share: measured cycles (or [failure_cost]);
                         [r_queue_wait + r_build_ticks + r_vm_ticks =
                          r_finish - r_arrival] *)
  r_gc_max_pause_words : int;
      (** largest single GC pause inside the request, words-of-work
          clock — the pause measure that responds to the budget *)
  r_gc_total_pause_words : int;
}

val completions : t -> completion list
(** Every completion so far, in submission order — exactly one per
    submitted request. *)

type report = {
  rp_submitted : int;
  rp_admitted : int;
  rp_rejected : int;
  rp_outcomes : (string * int) list;
      (** count per outcome class, every class present, exit-code order *)
  rp_unexpected : int;
      (** corruption + task-quarantined + internal-error completions:
          outcomes that must never occur *)
  rp_cache_hits : int;  (** logical build-tier hits *)
  rp_cache_misses : int;
  rp_makespan : int;  (** last finish - first arrival, virtual ticks *)
  rp_latency_p50 : int;
      (** virtual ticks, from the service registry's log2 histogram: a
          bucket's upper bound, so neighbouring percentiles can read the
          same *)
  rp_latency_p90 : int;
  rp_latency_p99 : int;
  rp_exact_p50 : int;
      (** exact nearest-rank percentiles of the admitted completions'
          latencies ({!nearest_rank}), in virtual ticks *)
  rp_exact_p90 : int;
  rp_exact_p99 : int;
  rp_labels : (string * int) list;  (** completions per request label *)
  rp_queue_wait : int;  (** summed queue-wait ticks *)
  rp_build_ticks : int;
  rp_vm_ticks : int;
  rp_total_latency : int;
      (** summed [r_finish - r_arrival]; always equals
          [rp_queue_wait + rp_build_ticks + rp_vm_ticks] *)
  rp_gc_max_pause_words : int;  (** worst single pause across requests *)
  rp_gc_total_pause_words : int;
  rp_slo_met : int;  (** from the [service/slo/*] counters *)
  rp_slo_violated : int;
}

val report : t -> report

val nearest_rank : int list -> float -> int
(** [nearest_rank values p]: the ceil(p * n)-th smallest of the n
    values ([p] clamped to [0, 1]), the rule {!Telemetry.Metrics.percentile}
    applies to histogram buckets; 0 for no values. *)

val hit_rate : report -> float
(** Logical hits / (hits + misses); 0 when nothing was admitted. *)

val throughput : report -> float
(** Admitted requests per thousand virtual ticks of makespan. *)

val burn_rate : report -> float
(** SLO burn: violated / (met + violated); 0 when no request named a
    pause SLO. *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic rendering: no wall-clock, no worker-count
    dependence — what the CLI prints and CI diffs across job counts. *)

val report_to_json : ?wall_s:float -> t -> Telemetry.Json.t
(** The full report plus, when [wall_s] is given, wall-clock throughput,
    and the session-scoped build-cache counters
    ({!Harness.Build.session_stats} over a session opened at {!create} —
    the traffic this service instance caused, which agrees with the
    absorbed [build/cache/*] registry counters). *)
