(** A Domain-based worker pool with one work-claiming engine.

    The pool exists so that the harness's embarrassingly parallel search
    problems — building the config x machine matrix, exploring a
    single-point GC-schedule space, regenerating table rows — can use
    every core while keeping reports deterministic: {!map} always returns
    results in input order, regardless of which domain finished first.

    A call publishes its input as one job: the submitting thread and the
    pool's persistent workers claim input indices from a shared counter
    until none are left, so the submitter works from the first index on.
    Tasks must not print (interleaved output from worker domains is not
    deterministic); compute values and render them from the submitting
    thread.  [jobs <= 1] means "no domains at all": the caller claims
    every index itself, in input order, which is the reference serial
    behaviour that parallel runs are diffed against. *)

type t

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs - 1] worker domains, which sleep between calls
    (the submitting thread is the remaining worker: it claims indices in
    {!map} alongside them).  [jobs] defaults to {!recommended_jobs};
    [jobs <= 1] spawns nothing. *)

val jobs : t -> int

val serial : t
(** The jobs=1 pool: {!map} on it runs every task on the caller, in
    input order.  Shutting it down is a no-op, so it can be used as a
    default everywhere. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map with deterministic, input-ordered results.  If any task
    raises, the exception of the smallest input index is re-raised after
    all tasks have settled.  Calls from different domains on one pool
    run one after the other.  Not reentrant: do not call {!map} from
    inside a task. *)

val shutdown : t -> unit
(** Wake and join the worker domains; later calls run on the caller
    alone.  Idempotent.  Do not call it while a call is running. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)

(** {2 Supervised execution}

    {!map_supervised} is the fault-tolerant sibling of {!map}, on the same
    engine: tasks carry per-attempt deadlines on a deterministic tick
    clock, transient failures are retried in place with deterministic
    backoff, and an attempt that dies (a crash or a blown deadline)
    unwinds to the claiming domain, which re-drives the task up to an
    attempt cap, after which the task is quarantined as a structured
    outcome instead of poisoning the pool.  Every index runs the same
    decision tree wherever it is claimed, so outcomes and counters are
    identical at every width ([jobs <= 1] included) and chaos reports
    diff cleanly against serial references. *)

exception Crash of string
(** A fault that kills the attempt (the chaos injector raises this): it
    counts as a restart and the task is re-driven, up to the attempt
    cap. *)

exception Transient of string
(** A retryable failure: the task is re-run in place after a
    deterministic backoff, up to the attempt cap. *)

exception Deadline_exceeded
(** Raised by [ctx.tick] when an attempt exhausts its tick budget;
    treated like a crash (counted as a restart, task re-driven). *)

type policy = {
  max_attempts : int;  (** total attempts per task before quarantine *)
  backoff_base : int;  (** base ticks for exponential backoff *)
  deadline : int option;  (** per-attempt tick budget; [None] = none *)
  seed : int;  (** jitter seed, for reproducible backoff schedules *)
}

val default_policy : policy
(** 3 attempts, base-16 backoff, no deadline, seed 0. *)

val backoff_ticks : seed:int -> attempt:int -> base:int -> int
(** Deterministic exponential backoff with jitter: a pure function of
    its arguments, so a fixed seed replays the same schedule. *)

type ctx = { tick : unit -> unit; attempt : int }
(** What a supervised task sees: [tick] advances the deterministic
    clock (and raises {!Deadline_exceeded} past the budget); [attempt]
    is 1-based. *)

type 'b outcome =
  | Done of { value : 'b; attempts : int }
  | Quarantined of { reason : string; attempts : int }

val outcome_value : 'b outcome -> 'b option

type sup_stats = {
  sup_retries : int;  (** re-executions past each task's first attempt *)
  sup_restarts : int;  (** attempts that died (crash or deadline) *)
  sup_backoff_ticks : int;  (** total backoff charged, in ticks *)
  sup_quarantined : int;
}

val map_supervised :
  t ->
  ?policy:policy ->
  ?recorder:Telemetry.Flight_recorder.t ->
  (ctx -> 'a -> 'b) ->
  'a list ->
  'b outcome list * sup_stats
(** Supervised parallel map with deterministic, input-ordered outcomes.
    With no faults, the outcomes are [Done] with [attempts = 1] and the
    values equal [map].  Tasks that keep failing transiently,
    crashing, or blowing deadlines settle as [Quarantined] after
    [policy.max_attempts] attempts; any other exception quarantines
    immediately.

    [recorder], when given, receives one [pool.retry] event per task
    that needed more than one attempt and one [pool.quarantine] event
    per quarantined task, recorded after every outcome settles, in
    input order with the input index as the timestamp — so dump
    contents are identical at every width. *)
