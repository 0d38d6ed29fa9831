(** Span tracer emitting Chrome trace-event JSON.

    A trace is an append-only event log in the Chrome trace-event
    format (the ["traceEvents"] array form) loadable by Perfetto and
    [chrome://tracing].  Phases used here: [B]/[E] duration spans,
    [i] instants, [C] counter tracks, and [M] metadata (lane names).

    Events are timestamped with a monotonic wall clock in microseconds
    relative to trace creation, and carry the calling domain's id as
    their [tid], so spans recorded by {!Exec.Pool} workers land in
    separate lanes.  Workers should call {!name_lane} once so the lanes
    are labelled in the UI.

    A tracer is safe to use from several domains at once. *)

type t

val create : unit -> t

val begin_span : t -> ?args:(string * Json.t) list -> string -> unit
(** Opens a [B] event on the calling domain's lane. *)

val end_span : t -> string -> unit
(** Closes the matching [B] with an [E] event on the same lane.
    {!Sink.span} pairs the two, closing the span even when its body
    raises. *)

val instant : t -> ?args:(string * Json.t) list -> string -> unit
(** An [i] (instant) event. *)

val counter : t -> string -> (string * int) list -> unit
(** A [C] (counter-track) event, one series per pair. *)

val register_lane : string -> unit
(** Names the calling domain's lane, process-wide: every tracer emits
    an [M] thread_name record for the lanes its events touch.
    {!Exec.Pool} workers register themselves as ["worker-N"]; the main
    domain defaults to ["main"]. *)

(** {1 Inspection and output} *)

type event = {
  ev_ph : char;
  ev_name : string;
  ev_ts : int;  (** microseconds since trace creation *)
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

val events : t -> event list
(** In emission order. *)

val to_json : t -> Json.t
(** The [{"traceEvents": [...]}] document. *)

val write_file : t -> string -> unit

val normalize : event list -> event list
(** Canonical form for determinism comparisons: timestamps and lane ids
    zeroed, then sorted by (name, phase, rendered args).  Lanes are
    erased because which worker a task lands on is a scheduling
    accident; per-lane B/E structure is [check]'s concern.  Two runs of
    the same parallel workload normalize to equal lists iff they
    produced the same multiset of events. *)

val check : Json.t -> (unit, string) result
(** Structural validator: the document is an object with a
    ["traceEvents"] array; every event has string [name]/[ph], integer
    [ts]/[pid]/[tid]; [ph] is one of B/E/i/C/M; and on every lane the
    B/E events balance like parentheses with matching names. *)
