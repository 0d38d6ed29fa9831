(** The structured outcome of one {!Request.t}: a VM run's
    {!Measure.outcome} ({!of_measure}) widened by the ways a request can
    end before or around its run.  The service's completions and the
    CLI's exit codes classify through it.

    The robustness identity (Hawblitzel & Petrank) is the contract:
    {!execute} never raises.  Every submitted request — garbage source,
    injected allocation failures, hard heap ceilings, a full admission
    queue — ends in exactly one constructor of {!t}. *)

type t =
  | Ran of Measure.run_info  (** completed; the measurement payload *)
  | Detected of string  (** the checking runtime stopped the program *)
  | Corrupted of string  (** the heap-integrity sanitizer fired *)
  | Limit of string  (** a resource ceiling was hit *)
  | Exhausted of string  (** out of memory under the hard heap limit *)
  | Source_error of string  (** lexing, parsing, typing, compilation *)
  | Rejected of string
      (** admission control shed the request (queue full, or the
          service was shut down) — the [Rejected_overload] outcome *)
  | Quarantined of string
      (** a supervised worker exhausted its attempt cap on the task *)
  | Internal of string
      (** an unclassified exception leaked — always a bug, counted as
          unexpected by every report *)

val of_measure : Measure.outcome -> t

val classify : t -> Diagnostics.outcome
(** The diagnostic class (and hence exit code) of an outcome.
    [Rejected] maps to {!Diagnostics.Overload} (exit 8); [Internal] to
    {!Diagnostics.Internal_error} (exit 9). *)

val class_name : t -> string
(** [Diagnostics.outcome_name (classify o)] — the stable wire/report
    spelling ("ok", "fault", ..., "rejected-overload"). *)

val all_class_names : string list
(** Every class a request can end in, in exit-code order — reports
    iterate this so per-outcome counts always show every class. *)

val describe : t -> string
(** The five run constructors render through {!Measure.describe}; the
    request-level ones as ["source error: ..."], ["rejected (overload):
    ..."], ["quarantined: ..."] and ["internal error: ..."]. *)

val to_json : t -> Telemetry.Json.t
(** The wire rendering a [gcsafec serve] session emits per request:
    class, detail, and for [Ran] the cycle/instruction/GC counts. *)

val execute :
  ?gc_point_sink:(int -> string -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  Request.t ->
  t
(** Compile (through the shared single-flight artifact cache) and run
    one request.  Total: classified through {!Diagnostics.of_exn}, with
    a catch-all to [Internal] — callers never see an exception. *)
