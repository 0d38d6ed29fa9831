(** The stress driver: fault-injected differential execution with
    schedule shrinking. *)

type mode =
  | Exhaustive of int
      (** every single-collection-point schedule, up to a cap *)
  | Every_n of int list  (** collect at every nth safepoint *)
  | Alloc_points  (** collect at every allocation *)

val mode_name : mode -> string

type plan = {
  p_matrix : Harness.Request.matrix;
      (** the config x machine x analysis x gc-mode cross product every
          target is stressed over, plus sanitizing and the
          max-instrs/max-heap ceilings; more than one analysis
          cross-checks analysis-pruned builds against fully-annotated
          ones, more than one gc mode cross-checks the generational
          collector against the paper's stop-the-world collector *)
  p_modes : mode list option;  (** [None]: choose per target size *)
  p_exhaustive_cap : int;
  p_jobs : int;
      (** worker domains for the schedule scan; 1 (the default) is the
          reference serial scan.  Reports are identical for every value:
          parallel scans consume results in schedule order and count
          runs as the serial scan would. *)
  p_trace_dir : string option;
      (** when set, every finding's failing schedule is replayed under a
          span tracer plus a flight recorder, and the Chrome trace and
          flight-recorder dump are written to this directory (created on
          demand); the paths land in [f_trace] / [f_flight].  Capture
          replays are not counted in [r_runs]. *)
}

val default_plan : plan

type kind =
  | Divergence of string  (** schedule-sensitive behaviour; mismatch kind *)
  | Corruption  (** the heap sanitizer fired *)
  | Config_gap of string
      (** uninjected behaviour disagrees with the baseline *)

val kind_name : kind -> string

type finding = {
  f_target : string;
  f_subject : string;
  f_config : Harness.Build.config;
  f_kind : kind;
  f_detail : string;
  f_schedule : string;  (** the schedule that first exposed it *)
  f_min_points : int list;  (** minimized point set ([] when not shrunk) *)
  f_orig_points : int;  (** collections fired before shrinking *)
  f_contexts : (int * string * string option) list;
      (** minimized point, program context, source location *)
  f_expected : bool;
      (** a known hazard of the conventional build, not a harness failure *)
  f_trace : string option;
      (** captured Chrome trace of the failing schedule ([p_trace_dir]) *)
  f_flight : string option;
      (** captured flight-recorder dump of the failing schedule — its
          last-N GC/VM events; validates under
          {!Telemetry.Flight_recorder.check} *)
}

type report = {
  r_findings : finding list;
  r_targets : int;
  r_subjects : int;
  r_runs : int;  (** VM executions, including shrinking *)
}

val unexpected : report -> finding list
(** Findings that must never occur: any integrity violation, any
    divergence or cross-configuration gap in a GC-safe or debug build. *)

val run_target :
  ?pool:Exec.Pool.t -> plan -> Corpus.target -> finding list * int * int
(** [findings, subjects, runs] for one target.  [runs] counts the VM
    executions of the serial scan (including shrinking); speculative
    parallel runs are excluded so the number is worker-count
    independent. *)

val run : ?plan:plan -> Corpus.target list -> report

val capture_path :
  string -> target:string -> subject:string -> int -> string -> string
(** [capture_path dir ~target ~subject n ext] is
    [<dir>/<target>-<subject>-<n>.<ext>], the file a finding's captured
    trace or flight-recorder dump lands in; [dir] is created on demand
    and the names are reduced to filename-safe characters.  The chaos
    sweep names its captures the same way. *)

val pp_finding : Format.formatter -> finding -> unit

val pp_report : Format.formatter -> report -> unit
