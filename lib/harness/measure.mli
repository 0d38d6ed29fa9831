(** Running built programs and computing paper-style slowdown cells. *)

type run_info = {
  o_cycles : int;
  o_instrs : int;
  o_size : int;
  o_output : string;
  o_exit : int;
  o_gc_count : int;
  o_live_objects : int;
  o_live_bytes : int;
  o_emergency : int;  (** emergency (collect-expand) collections run *)
  o_injected_failures : int;  (** allocation failpoints that fired *)
  o_allocs : int;  (** objects allocated (the failpoint ordinal space) *)
  o_increments : int;  (** incremental-marking steps run *)
  o_inc_max_pause : int;  (** largest increment, in words of work *)
  o_inc_overruns : int;  (** increments that exceeded the pause budget *)
  o_gc_max_pause_words : int;
      (** largest single GC pause on the deterministic words-of-work
          clock — per cycle in stop-the-world/generational mode, per
          increment in incremental mode, so it responds to the pause
          budget.  Tracked unconditionally (telemetry on or off). *)
  o_gc_total_pause_words : int;
  o_census : Gcheap.Census.t list;
      (** per-collection heap censuses, oldest first; empty unless
          [exec ~census:true] *)
}

type outcome =
  | Ran of run_info
  | Detected of string
      (** the checking runtime (or the VM's access checker) stopped the
          program — the paper's "<fails>" cells *)
  | Corrupted of string
      (** the heap-integrity sanitizer found a violated invariant *)
  | Limit of string  (** a resource ceiling (steps, heap bytes) was hit *)
  | Exhausted of string
      (** out of memory under the hard heap limit (after the configured
          recovery), or an injected failure under the trap policy *)

val describe : outcome -> string
(** The one rendering of a run outcome, in the CLI's spelling:
    ["ran (exit N)"], ["detected: ..."], ["limit: ..."],
    ["heap corruption: ..."], and for [Exhausted] the heap's own
    ["heap exhausted: ..."] message, unprefixed. *)

val exec :
  ?gc_point_sink:(int -> string -> unit) ->
  ?telemetry:Telemetry.Sink.t ->
  ?census:bool ->
  Request.t ->
  Build.built ->
  outcome
(** Execute a built program under a {!Request.t} — the canonical runner;
    the request names the machine, schedule, collector mode, pause
    budget, ceilings, OOM policy and failpoints in one value.
    [gc_point_sink], [telemetry] and [census] stay per-call: they are
    observation channels, not part of the request's identity. *)

val slowdown_cell : base_cycles:int -> outcome -> string
(** Percentage slowdown rendered as in the paper's tables ("9%",
    "<fails>"). *)

val size_cell : base_size:int -> outcome -> string

val cycles : outcome -> int option

val output : outcome -> string option

exception Baseline_failed of string

val base_cycles_exn : outcome -> int

val census_to_json : Gcheap.Census.t -> Telemetry.Json.t
(** Wire rendering of a heap census (the census record itself lives in
    [Gcheap], which has no JSON dependency). *)
