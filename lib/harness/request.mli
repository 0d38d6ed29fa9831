(** The unified request record: one value naming everything a single
    compile+run needs.

    Before this module, every consumer — {!Measure.exec}'s
    predecessors, {!Differ.observe}, the stress plans, the CLI
    — re-spelled the same ~8 optional arguments ([?gc_mode],
    [?heap_limit], [?oom_policy], [?alloc_failpoints], ...).  A request
    collapses them into a first-class value: the same record a
    [gcsafed] wire request deserializes into, the record the differ's
    subjects carry, and the source of the canonical build key.  Smart constructors mirror {!Build.default} /
    {!Build.for_machine}. *)

type t = {
  label : string;  (** free-form scenario tag (reports group on it) *)
  source : string;  (** the C program text *)
  config : Build.config;
  machine : Machine.Machdesc.t;
  analysis : Gcsafe.Mode.analysis;
  gc_mode : Gcheap.Heap.gc_mode;
  loop_heuristic : bool;
  use_cache : bool;
  schedule : Machine.Schedule.t;
  check_integrity : bool;
  final_collect : bool;
  gc_threshold : int option;
      (** [None] keeps {!Gcheap.Heap.default_config}'s *)
  gc_pause_budget : int option;
      (** incremental-marking pause budget in words of collector work
          per increment; [None] keeps {!Gcheap.Heap.default_config}'s.
          The service's SLO layer also reads this as the per-request
          pause SLO. *)
  max_instrs : int option;
  max_heap : int option;
  heap_limit : int;  (** hard arena ceiling in words; 0 = unlimited *)
  oom_policy : Gcheap.Heap.oom_policy;
  alloc_failpoints : Gcheap.Failpoint.t;
  trace_id : int;
      (** request-scoped trace id for flight-recorder / phase-span
          correlation; 0 (the default) means "unassigned" — the service
          stamps a fresh one at submission.  Deliberately excluded from
          {!cache_key}, which derives from the build options, config and
          source only, so tracing never perturbs caching or artifact
          sharing. *)
}

val make :
  ?label:string ->
  ?config:Build.config ->
  ?machine:Machine.Machdesc.t ->
  ?analysis:Gcsafe.Mode.analysis ->
  ?gc_mode:Gcheap.Heap.gc_mode ->
  ?loop_heuristic:bool ->
  ?use_cache:bool ->
  ?schedule:Machine.Schedule.t ->
  ?check_integrity:bool ->
  ?final_collect:bool ->
  ?gc_threshold:int ->
  ?gc_pause_budget:int ->
  ?max_instrs:int ->
  ?max_heap:int ->
  ?heap_limit:int ->
  ?oom_policy:Gcheap.Heap.oom_policy ->
  ?alloc_failpoints:Gcheap.Failpoint.t ->
  ?trace_id:int ->
  string ->
  t
(** [make source] with the harness defaults: [Safe] on sparc10,
    {!Build.for_machine} options ([A_flow], cache on), the collector of
    {!Gcheap.Heap.default_config}, [Auto] schedule, no sanitizing, no
    ceilings.
    Overrides are record updates from here on — the call-site dialect
    of optional arguments stops at this constructor. *)

val build_options : t -> Build.options
(** The {!Build.options} this request compiles under (register count
    from [machine], analysis/loop heuristic/cache use from the
    request). *)

val cache_key : t -> string
(** The canonical content address of this request's build —
    {!Build.cache_key} over {!build_options}.  Run-time fields (gc mode,
    schedule, ceilings, injected faults, trace id) are not part of it:
    two requests with equal keys share one built artifact, in the
    artifact cache, a differ matrix and the service's build tier
    alike. *)

val describe : t -> string
(** ["config @ machine"], tagged [" [analysis=none]"] for
    paper-verbatim requests, [" [gen]"] for generational and
    [" [inc]"] for incremental ones — the differ's subject-name
    rendering. *)

(** {1 Matrices}

    The cross product the differ and the stress plans iterate: configs
    x machines x analyses x gc modes over one source.  Replaces the
    four parallel lists those plans used to re-spell. *)

type matrix = {
  m_configs : Build.config list;
  m_machines : Machine.Machdesc.t list;
  m_analyses : Gcsafe.Mode.analysis list;
      (** variants of the preprocessed configurations; unpreprocessed
          configs get a single subject regardless *)
  m_gc_modes : Gcheap.Heap.gc_mode list;
  m_max_instrs : int option;
  m_max_heap : int option;
}

val default_matrix : matrix
(** All five configurations on the paper's three machines, [A_flow],
    stop-the-world, no ceilings. *)

val expand : matrix -> string -> t list
(** Every request in the matrix over one source, in deterministic
    (machine, config, analysis, gc-mode) order.  Unpreprocessed
    configurations collapse their analysis variants.  Every request
    sanitizes and collects at exit ([check_integrity] and
    [final_collect]): differential runs always sanitize. *)

(** {1 Wire format}

    One JSON object per request — what [gcsafec serve] reads per line.
    Every field is optional except ["source"]; spellings match the CLI
    ("safe-peep", "stw", "every-3", "nth:5", ...). *)

val to_json : t -> Telemetry.Json.t

val of_json : Telemetry.Json.t -> (t, string) result
(** A malformed request is a structured [Error], never an exception:
    the service maps it to a source-error outcome, preserving the
    robustness identity for garbage traffic. *)
