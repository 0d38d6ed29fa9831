(** The telemetry sink: the bundle instrumented code receives.

    A sink carries a metrics registry plus an optional tracer, heap
    profiler and flight recorder, so a single optional argument threads
    them all through the VM, heap, and harness.  Events go through one
    emitter, {!span} or {!instant}, which sends each to the trace and
    the recorder at once.  [none] is the canonical "telemetry
    off" value: its registry is {!Metrics.disabled} and hot paths can
    skip it with one match. *)

type t = {
  metrics : Metrics.t;
  trace : Trace.t option;
  profiler : Heap_profiler.t option;
  recorder : Flight_recorder.t option;
}

val none : t option
(** [None]; for readability at call sites. *)

val make :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?profiler:Heap_profiler.t ->
  ?recorder:Flight_recorder.t ->
  unit ->
  t
(** Defaults: a fresh enabled registry, no tracer, no profiler, no
    flight recorder. *)

val metrics : t option -> Metrics.t
(** The sink's registry, or {!Metrics.disabled}. *)

type args = (string * Json.t) list

val span :
  t option ->
  ?ts:int ->
  ?args:(unit -> args) ->
  ?end_args:(unit -> args) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span sink ~ts name f] brackets [f] as one event on every channel
    the sink carries: a [name] span on the Chrome trace, and
    [name ^ ".begin"] / [name ^ ".end"] on the flight recorder, stamped
    [ts] on the producer's clock (the VM's instruction count).  The
    [".begin"] event carries [args ()], the [".end"] event
    [args () @ end_args ()], evaluated after [f].  Both channels close
    even when [f] raises, so the trace and the dump stay balanced.

    Without [ts] the span is the trace's alone: whole-run and build
    spans have no recorder events.  With neither a tracer nor (given
    [ts]) a recorder attached this is just [f ()]: one match, and the
    argument thunks are never called. *)

val instant : t option -> ts:int -> ?args:(unit -> args) -> string -> unit
(** One [name] event, an instant on the Chrome trace and a record on the
    flight recorder, stamped [ts]; [args] is called only when a channel
    is attached. *)
