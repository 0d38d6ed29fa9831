(** Build configurations: source -> annotated AST -> optimized,
    register-allocated machine code.  These mirror the paper's measured
    builds. *)

type config =
  | Base  (** "-O": the unpreprocessed optimized baseline *)
  | Safe  (** "-O, safe": preprocessed for GC-safety, then optimized *)
  | Safe_peephole  (** [Safe] plus the assembly-level postprocessor *)
  | Debug  (** "-g": fully debuggable, unpreprocessed *)
  | Debug_checked  (** "-g, checked": pointer-arithmetic checks inserted *)

val config_name : config -> string

val config_id : config -> string
(** The CLI/wire spelling ("base", "safe", "safe-peep", "debug",
    "checked"); inverse of {!config_of_string}. *)

val config_of_string : string -> config option
(** Parse a CLI/wire spelling ("g" is accepted for [Debug]). *)

val preprocessed : config -> bool
(** Does annotation run at all for this configuration?  When it does
    not, the analysis choice cannot affect the artifact. *)

val all_configs : config list

type built = {
  b_config : config;
  b_ir : Ir.Instr.program;
  b_keep_lives : int;  (** annotations inserted (0 for unpreprocessed) *)
  b_size : int;  (** static size in instructions *)
}

(** {1 Build options}

    Everything besides the configuration and the source that affects the
    produced code lives in one record, so call sites stay stable as
    inputs are added and the artifact cache can key on it.  Run-time
    choices (the collector mode, schedules, ceilings) are not build
    options: one artifact serves every run of the same code. *)

type options = {
  nregs : int;  (** physical registers available to the allocator *)
  loop_heuristic : bool;
      (** the paper's optimization (3): slowly-varying loop base
          pointers.  Off by default, matching the paper's implementation
          ("Only optimizations (1) and (2) from above are implemented"). *)
  use_cache : bool;
      (** consult the process-wide artifact cache (see {!cache_stats}) *)
  analysis : Gcsafe.Mode.analysis;
      (** which program analysis prunes annotation sites.  The harness
          defaults to [A_flow] — annotate only what the dataflow clients
          cannot prove redundant; [A_none] reproduces the paper's
          implementation verbatim. *)
}

val default : options
(** 32 registers, no loop heuristic, cache on, [A_flow] analysis. *)

val for_machine : Machine.Machdesc.t -> options
(** {!default} with the machine's register file size, so measurements
    claiming a machine model are compiled for that machine's register
    pressure. *)

val compile : ?telemetry:Telemetry.Sink.t -> ?options:options -> config -> string -> built
(** Annotate (when the configuration calls for it), compile, optimize
    and register-allocate a source program.  Memoized in a process-wide
    content-addressed cache (see {!cache_key}) unless caching is
    disabled; cache hits return the physically-equal [built].  Safe to
    call from several domains at once: concurrent builds of the same key
    run once.

    With [telemetry], actual compilations run under a [build.compile]
    span, and per-call cache outcomes land in the sink's registry as
    [build/cache/{hits,misses,bypass}] — counters scoped to this sink,
    not the process. *)

(** {1 Sessions}

    The cache and its counters are process-wide by design (that is what
    makes cross-consumer memoization work), which used to mean
    back-to-back bench sections inherited each other's hit rates.  A
    session snapshots the counters at creation; {!session_stats} is the
    delta since, i.e. the traffic attributable to the session alone. *)

type session

val new_session : unit -> session

val session_stats : session -> Exec.Cache.stats
(** Hits/misses/corruptions since {!new_session}; [entries] is current
    residency (not a delta). *)

(** {1 The artifact cache} *)

val cache_key : options -> config -> string -> string
(** The one build identity, [config:nregs:loop_heuristic:analysis:digest]:
    exactly the inputs that shape the produced code.  Excludes
    [use_cache] (steers the lookup, not the artifact).  Injective in
    those inputs (modulo digest collisions); the cache, the differ's
    build dedup and the service's build tier all key on it. *)

val cache_stats : unit -> Exec.Cache.stats

val corrupt_cached : ?options:options -> config -> string -> bool
(** Chaos hook: rot the cached artifact for this build in place (its
    recorded fingerprint is left stale, so the next {!compile} hit
    detects the mismatch, counts a corruption, and rebuilds instead of
    serving it).  Returns [false] when nothing is cached for the key. *)

val reset_cache : unit -> unit
(** Drop all cached artifacts and zero the counters. *)

val set_cache_enabled : bool -> unit
(** Process-wide escape hatch (the CLI's [--no-cache]): when disabled,
    every [compile] rebuilds regardless of [options.use_cache]. *)
