(** Rendering of the paper's tables (T1-T5), the analysis ablation (A5)
    and the ablations of the paper's optimizations (A3) from fresh
    measurements.  Each function recomputes its column set for the given
    machine and prints rows in the paper's layout; T1-T5 and A5 also
    return the raw numbers for assertions ([test/tables.t] pins the
    whole printed text).

    Measurement is separated from rendering: pass [?pool] to fan row
    measurement out over worker domains — builds go through the
    process-wide artifact cache either way, and the printed table is
    byte-identical to a serial run. *)

type cell = { c_config : Build.config; c_outcome : Measure.outcome }

type row = {
  r_workload : string;
  r_base : Measure.outcome;
  r_cells : cell list;
}

val slowdown_table :
  ?machine:Machine.Machdesc.t ->
  ?out:Format.formatter ->
  ?suite:Workloads.Registry.workload list ->
  ?pool:Exec.Pool.t ->
  unit ->
  row list
(** T1/T2/T3: slowdown of (-O safe), (-g), (-g checked) over -O. *)

val size_table :
  ?machine:Machine.Machdesc.t ->
  ?out:Format.formatter ->
  ?pool:Exec.Pool.t ->
  unit ->
  (string * int * (Build.config * int) list) list
(** T4: static code size expansion; returns
    [(workload, base_size, per-config sizes)]. *)

type analysis_row = {
  a_workload : string;
  a_keep_lives_none : int;  (** annotations under the paper's algorithm *)
  a_keep_lives_flow : int;  (** annotations surviving the dataflow clients *)
  a_base : Measure.outcome;
  a_safe_none : Measure.outcome;  (** -O safe, analysis off *)
  a_safe_flow : Measure.outcome;  (** -O safe, analysis on *)
}

val analysis_table :
  ?machine:Machine.Machdesc.t ->
  ?out:Format.formatter ->
  ?suite:Workloads.Registry.workload list ->
  ?pool:Exec.Pool.t ->
  unit ->
  analysis_row list
(** Ablation of the [lib/analysis] dataflow clients: per workload, the
    KEEP_LIVE counts and the -O safe slowdown with analysis off (the
    paper's algorithm) and on. *)

val postprocessor_table :
  ?machine:Machine.Machdesc.t ->
  ?out:Format.formatter ->
  ?pool:Exec.Pool.t ->
  unit ->
  (string * Measure.outcome * Measure.outcome * int * int) list
(** T5: residual time/size of safe + peephole vs -O; returns
    [(workload, base outcome, postprocessed outcome, base size, size)]. *)

val ablation_table :
  ?machine:Machine.Machdesc.t ->
  ?out:Format.formatter ->
  ?pool:Exec.Pool.t ->
  unit ->
  unit
(** A3: the paper's optimizations (1), (3) and (4) turned off, and what
    the pointer-disguising passes buy.  (1) and (4) are KEEP_LIVE counts
    of the paper's algorithm (analysis none) over the paper suite; (3)
    is a string-copy loop's cycles with and without the loop heuristic
    on [machine], and on the 8-register pentium90; the disguising
    passes' rows compare each workload's -O cycles with those of the -O
    build without them. *)
