(** Differential execution across build configurations and machine models
    under one injected GC schedule.

    The paper's safety claim is relational: under *any* collection
    schedule, a GC-safe build must behave exactly like the optimized
    baseline does when no collection interferes.  Build the requests of
    a {!Request.matrix} once with {!build_matrix} (or
    {!build_of_matrix}), pick each machine's baseline with {!reference},
    execute any subject under any schedule with {!observe}, and compare
    behaviour with {!diff}.

    A subject is simply a {!Request.t} paired with its built artifact;
    the per-subject config/machine/analysis/gc-mode fields this module
    used to duplicate live on the request now. *)

type subject = { s_request : Request.t; s_built : Build.built }

val subject_name : subject -> string
(** {!Request.describe} of the subject's request: ["config @ machine"],
    tagged with [" [analysis=none]"] for paper-verbatim subjects and
    [" [gen]"] for generational ones. *)

val default_machines : Machine.Machdesc.t list
(** The paper's three machine models
    ({!Request.default_matrix}[.m_machines]). *)

val build_matrix : ?pool:Exec.Pool.t -> Request.t list -> subject list
(** One subject per request, compiling each distinct
    {!Request.cache_key} once (requests across machines with equal
    register counts and across collector modes share one artifact).
    [pool] fans the distinct builds out over worker domains.  Subjects
    come back in request order. *)

val build_of_matrix :
  ?pool:Exec.Pool.t -> Request.matrix -> string -> subject list
(** [build_matrix] over {!Request.expand}: the matrix-over-one-source
    convenience the CLI and stress plans use. *)

val observe :
  ?gc_point_sink:(int -> string -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  schedule:Machine.Schedule.t ->
  subject ->
  Measure.outcome
(** Execute one subject under one schedule.  Sanitizing, ceilings, heap
    limit, OOM policy and failpoints all come from the subject's
    request — override with a record update on [s_request] before
    calling (the chaos sweep does).  [gc_point_sink] and [telemetry]
    stay per-call: observation channels, not request identity. *)

val reference : subject list -> Machine.Machdesc.t -> subject
(** The subject every other subject on [machine] is diffed against: the
    optimized baseline ([Base]) on that machine, the stop-the-world one
    when the subjects span gc modes.  Observe it under
    {!Machine.Schedule.Auto} (no injected collections) for the paper's
    intended behaviour.  Raises [Failure] when [subjects] holds no
    [Base] subject on [machine]. *)

type mismatch =
  | Output_diff of { exp : string; got : string }
  | Heap_diff of { exp : int * int; got : int * int }
  | Fault_diff of string  (** program faulted; reference did not *)
  | Corruption_diff of string
  | Limit_diff of string
  | Exhausted_diff of string  (** program ran out of heap; reference did not *)

val mismatch_kind : mismatch -> string

val describe_mismatch : mismatch -> string

val diff : reference:Measure.outcome -> Measure.outcome -> mismatch option
(** Compare two runs on exit code, output and final live heap; a failed
    run agrees with a reference that failed in the same class.  [None]
    means behaviourally equal to the reference. *)
