(** Differential execution across build configurations and machine models
    under one injected GC schedule.

    The paper's safety claim is relational: under *any* collection
    schedule, a GC-safe build must behave exactly like the optimized
    baseline does when no collection interferes.  This module provides the
    machinery for testing that relation: build the requests of a
    {!Request.matrix} once, execute any subject under any schedule, and
    diff the observable behaviour — output, exit code, final live heap,
    and fault class — against a reference observation. *)

type subject = { s_request : Request.t; s_built : Build.built }

let subject_name s = Request.describe s.s_request

let default_machines = Request.default_matrix.Request.m_machines

(** Build one subject per request, compiling each distinct
    {!Request.cache_key} once.  Register allocation is the only
    machine-dependent build step and the gc mode affects the run, not
    the artifact, so requests across machines with equal register counts
    and across collector modes share one built artifact.  [pool] fans
    the distinct builds out over worker domains.  Subjects come back in
    the order of [requests]. *)
let build_matrix ?(pool = Exec.Pool.serial) (requests : Request.t list) :
    subject list =
  let distinct =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun r ->
        let key = Request.cache_key r in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      requests
  in
  let built =
    Exec.Pool.map pool
      (fun r ->
        ( Request.cache_key r,
          Build.compile
            ~options:(Request.build_options r)
            r.Request.config r.Request.source ))
      distinct
  in
  List.map
    (fun r -> { s_request = r; s_built = List.assoc (Request.cache_key r) built })
    requests

(** The matrix-over-one-source convenience the CLI and the stress plans
    use: expand, then build. *)
let build_of_matrix ?pool (m : Request.matrix) (source : string) : subject list
    =
  build_matrix ?pool (Request.expand m source)

(** What one run observably did.  [Obs_ok] carries everything the paper
    treats as program behaviour; the three failure observations carry the
    diagnostic. *)
type obs =
  | Obs_ok of {
      ok_exit : int;
      ok_output : string;
      ok_live : int * int;
      ok_instrs : int;
    }
  | Obs_detected of string
  | Obs_corrupted of string
  | Obs_limit of string
  | Obs_exhausted of string

let obs_of_outcome = function
  | Measure.Ran r ->
      Obs_ok
        {
          ok_exit = r.Measure.o_exit;
          ok_output = r.Measure.o_output;
          ok_live = (r.Measure.o_live_objects, r.Measure.o_live_bytes);
          ok_instrs = r.Measure.o_instrs;
        }
  | Measure.Detected m -> Obs_detected m
  | Measure.Corrupted m -> Obs_corrupted m
  | Measure.Limit m -> Obs_limit m
  | Measure.Exhausted m -> Obs_exhausted m

(** The structured class of one observation, for exit codes and
    failure-kind decisions shared with the CLI. *)
let classify = function
  | Obs_ok _ -> Diagnostics.Ok
  | Obs_detected _ -> Diagnostics.Fault
  | Obs_corrupted _ -> Diagnostics.Corruption
  | Obs_limit _ -> Diagnostics.Limit
  | Obs_exhausted _ -> Diagnostics.Heap_exhausted

let describe_obs = function
  | Obs_ok o ->
      Printf.sprintf "exit %d, %d byte(s) of output, %d live object(s)"
        o.ok_exit
        (String.length o.ok_output)
        (fst o.ok_live)
  | Obs_detected m -> "fault: " ^ m
  | Obs_corrupted m -> "heap corruption: " ^ m
  | Obs_limit m -> "resource limit: " ^ m
  | Obs_exhausted m -> "heap exhausted: " ^ m

(** Execute [subject] under [schedule].  Everything else — sanitizing,
    ceilings, heap limit, OOM policy, failpoints — comes from the
    subject's request; override with a record update on [s_request]
    before calling.  [gc_point_sink] and [telemetry] stay per-call:
    they are observation channels, not part of the request. *)
let observe ?gc_point_sink ?telemetry ~schedule subject : obs =
  obs_of_outcome
    (Measure.exec ?gc_point_sink ?telemetry
       { subject.s_request with Request.schedule }
       subject.s_built)

(** How an observation deviates from the reference behaviour. *)
type mismatch =
  | Output_diff of { exp : string; got : string }
      (** exit code folded into the rendered strings *)
  | Heap_diff of { exp : int * int; got : int * int }
  | Fault_diff of string  (** program faulted; reference did not *)
  | Corruption_diff of string
  | Limit_diff of string
  | Exhausted_diff of string  (** program ran out of heap; reference did not *)

let mismatch_kind = function
  | Output_diff _ -> "output"
  | Heap_diff _ -> "final-heap"
  | Fault_diff _ -> "fault"
  | Corruption_diff _ -> "corruption"
  | Limit_diff _ -> "limit"
  | Exhausted_diff _ -> "heap-exhausted"

let describe_mismatch = function
  | Output_diff d -> Printf.sprintf "expected %S, got %S" d.exp d.got
  | Heap_diff d ->
      Printf.sprintf
        "final heap: expected %d object(s) / %d byte(s), got %d / %d"
        (fst d.exp) (snd d.exp) (fst d.got) (snd d.got)
  | Fault_diff m -> m
  | Corruption_diff m -> m
  | Limit_diff m -> m
  | Exhausted_diff m -> m

(** Diff [got] against [reference].  [None] means behaviourally equal. *)
let diff ~reference got : mismatch option =
  match (reference, got) with
  | Obs_ok r, Obs_ok g ->
      if r.ok_exit <> g.ok_exit || not (String.equal r.ok_output g.ok_output)
      then
        Some
          (Output_diff
             {
               exp = Printf.sprintf "exit=%d %s" r.ok_exit r.ok_output;
               got = Printf.sprintf "exit=%d %s" g.ok_exit g.ok_output;
             })
      else if r.ok_live <> g.ok_live then
        Some (Heap_diff { exp = r.ok_live; got = g.ok_live })
      else None
  (* Same fault class as the reference counts as agreement: where in the
     program a checking build stops can shift with the schedule, but the
     class of behaviour is what the paper compares. *)
  | Obs_detected _, Obs_detected _ -> None
  | Obs_corrupted _, Obs_corrupted _ -> None
  | Obs_limit _, Obs_limit _ -> None
  | Obs_exhausted _, Obs_exhausted _ -> None
  | _, Obs_detected m -> Some (Fault_diff m)
  | _, Obs_corrupted m -> Some (Corruption_diff m)
  | _, Obs_limit m -> Some (Limit_diff m)
  | _, Obs_exhausted m -> Some (Exhausted_diff m)
  | (Obs_detected _ | Obs_corrupted _ | Obs_limit _ | Obs_exhausted _), Obs_ok g
    ->
      Some
        (Output_diff
           {
             exp = "a fault (matching the reference)";
             got = Printf.sprintf "exit=%d %s" g.ok_exit g.ok_output;
           })

type cell = { c_subject : subject; c_obs : obs; c_mismatch : mismatch option }

(** Run the whole matrix under one schedule.  The reference for every cell
    is the optimized baseline ([Base]) on the same machine under [Auto]
    (no injected collections) — the paper's notion of intended behaviour.
    When the matrix spans gc modes, the stop-the-world baseline is
    preferred: generational subjects must match the paper's collector. *)
let run_matrix ~schedule (subjects : subject list) : cell list =
  let references = Hashtbl.create 4 in
  let reference_for (machine : Machine.Machdesc.t) =
    let key = machine.Machine.Machdesc.md_name in
    match Hashtbl.find_opt references key with
    | Some r -> r
    | None ->
        let bases =
          List.filter
            (fun s ->
              s.s_request.Request.config = Build.Base
              && s.s_request.Request.machine.Machine.Machdesc.md_name = key)
            subjects
        in
        let base =
          match
            List.find_opt
              (fun s -> s.s_request.Request.gc_mode = Gcheap.Heap.Stw)
              bases
          with
          | Some s -> s
          | None -> List.hd bases
        in
        let r = observe ~schedule:Machine.Schedule.Auto base in
        Hashtbl.add references key r;
        r
  in
  List.map
    (fun s ->
      let reference = reference_for s.s_request.Request.machine in
      let obs = observe ~schedule s in
      { c_subject = s; c_obs = obs; c_mismatch = diff ~reference obs })
    subjects
