(** Flight recorder: a fixed-size ring buffer of structured events.

    The recorder keeps the last [capacity] events; older events are
    evicted as new ones arrive.  Every event carries a monotonically
    increasing ordinal (assigned at record time, never reused), a
    caller-supplied timestamp on whatever clock the producer uses
    (virtual service ticks for [Gcsafed], executed-instruction counts
    for the VM), a kind string, and structured arguments.

    Recording never allocates on the VM's cost clock and never touches
    cycle counts, so attaching a recorder preserves the
    bit-identical-cycles invariant.

    Determinism: producers only record from serial sections (the
    service's virtual-time simulation, or a single VM run), so the dump
    of a recorder is byte-identical across [--jobs] values. *)

type event = {
  fr_ordinal : int;  (** dense, 0-based, assigned at record time *)
  fr_ts : int;  (** producer-clock timestamp *)
  fr_kind : string;  (** e.g. ["request.begin"], ["gc.step"] *)
  fr_args : (string * Json.t) list;
}

type t

val default_capacity : int
(** 4096 events. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is clamped to at least 1. *)

val capacity : t -> int

val record : t -> ts:int -> string -> (string * Json.t) list -> event
(** Append an event, evicting the oldest once the ring is full, and
    return it as stored, ordinal included.  Thread-safe. *)

val recorded : t -> int
(** Total events ever recorded (not just retained). *)

val dropped : t -> int
(** Events evicted so far: [max 0 (recorded - capacity)]. *)

val events : t -> event list
(** Retained events, oldest first. *)

val event_to_json : event -> Json.t
(** [{"ordinal":..,"ts":..,"kind":..,"args":{..}}]. *)

val dump : t -> Json.t
(** [{"flightRecorder":{"capacity":..,"recorded":..,"dropped":..,
    "events":[..]}}] — the document [check] validates. *)

val write_file : t -> string -> unit

val is_dump : Json.t -> bool
(** True when the document has a ["flightRecorder"] member —
    used by [trace-check] to dispatch between Chrome traces and
    flight-recorder dumps. *)

val check : Json.t -> (unit, string) result
(** Validate a dump: structural fields; window coherence
    ([length events = min recorded capacity] and
    [dropped = recorded - length events]); dense monotone ordinals
    starting at [dropped]; and span balance — kinds ending in
    [".begin"]/[".end"] must nest per span name and [trace_id]
    argument.  When [dropped > 0] the front of a span may have been
    evicted, so unmatched [".end"]s and trailing opens are tolerated;
    with [dropped = 0] balance must be exact. *)
