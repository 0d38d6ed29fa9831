(** The chaos sweep: fault-injected robustness testing.

    Where {!Driver} perturbs when the collector runs, this module
    perturbs whether the runtime's own machinery works: allocations fail
    on command ({!Gcheap.Failpoint}), supervised tasks crash mid-attempt
    ({!Exec.Pool.map_supervised}), and cached build artifacts rot in
    place ({!Harness.Build.corrupt_cached}).  The property under test is
    the robustness identity — under any injected fault, a run either
    behaves exactly like its fault-free reference or stops with a
    structured diagnostic; corruption, hangs and silent divergence are
    findings.  Every sweep is a deterministic function of the plan, and
    the seed is printed with every failing report so it replays
    exactly. *)

type plan = {
  c_matrix : Harness.Request.matrix;
      (** the config x machine x gc-mode cross product the sweeps cover
          (sanitizing always on via the matrix defaults) *)
  c_seed : int;  (** drives ordinal sampling and fault placement *)
  c_max_points : int;  (** allocation ordinals swept per subject *)
  c_trap_probes : int;  (** trap-policy injections per subject *)
  c_jobs : int;  (** worker domains; 1 = the reference serial sweep *)
  c_flight_dir : string option;
      (** when set, every alloc-failure finding's injected run is
          replayed under a flight recorder and the dump (its last-N
          GC/emergency events) written here; the path lands in
          [cf_flight].  Capture replays are uncounted, so reports stay
          a function of the plan. *)
}

val default_plan : plan
(** [Base] and [Safe] on sparc10 under stop-the-world collection,
    seed 0, 64 ordinals and 3 trap probes per subject, serial. *)

type finding = {
  cf_target : string;
  cf_subject : string;
  cf_sweep : string;  (** ["alloc-failure"], ["worker-fault"], ["cache"] *)
  cf_kind : string;
      (** ["divergence"], ["hang"], ["corruption"], ["burst"],
          ["trap-leak"], ["quarantine"], ["undetected-corruption"] *)
  cf_points : int list;
      (** injected allocation ordinals ({!Shrink.ddmin}-minimized for
          burst findings) *)
  cf_detail : string;
  cf_expected : bool;
      (** a known hazard of the conventional build perturbed by the
          injection-triggered collection, not a robustness failure *)
  cf_flight : string option;
      (** captured flight-recorder dump of the injected run
          ([c_flight_dir] set; alloc-failure sweeps only) *)
}

type report = {
  c_plan_seed : int;
  c_subject_count : int;
  c_injections : int;  (** allocation failures injected *)
  c_recovered : int;  (** runs identical to their fault-free reference *)
  c_structured : int;  (** runs stopped with a structured diagnostic *)
  c_emergency_collections : int;
  c_worker_faults : int;  (** worker crashes injected *)
  c_worker_restarts : int;  (** attempts that died (crash or deadline) *)
  c_worker_retries : int;
  c_quarantined : int;
  c_cache_corruptions : int;  (** artifacts rotted *)
  c_cache_recovered : int;  (** rotted artifacts detected and rebuilt *)
  c_runs : int;  (** VM executions, shrinking included *)
  c_findings : finding list;
}

val unexpected : report -> finding list

val run : ?plan:plan -> Corpus.target list -> report
(** Run all three sweeps over every target.  Reports are a function of
    the plan alone: parallel sweeps ([c_jobs > 1]) produce the same
    report as the serial reference. *)

val pp_finding : Format.formatter -> finding -> unit

val pp_report : Format.formatter -> report -> unit
