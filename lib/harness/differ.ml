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

(** Execute [subject] under [schedule].  Everything else — sanitizing,
    ceilings, heap limit, OOM policy, failpoints — comes from the
    subject's request; override with a record update on [s_request]
    before calling.  [gc_point_sink] and [telemetry] stay per-call:
    they are observation channels, not part of the request. *)
let observe ?gc_point_sink ?telemetry ~schedule subject : Measure.outcome =
  Measure.exec ?gc_point_sink ?telemetry
    { subject.s_request with Request.schedule }
    subject.s_built

(** The reference subject for [machine]: the optimized baseline
    ([Base]) on that machine — the paper's notion of intended behaviour.
    When the subjects span gc modes, the stop-the-world baseline is
    preferred: generational and incremental subjects must match the
    paper's collector, not the other way around. *)
let reference (subjects : subject list) (machine : Machine.Machdesc.t) :
    subject =
  let bases =
    List.filter
      (fun s ->
        s.s_request.Request.config = Build.Base
        && s.s_request.Request.machine.Machine.Machdesc.md_name
           = machine.Machine.Machdesc.md_name)
      subjects
  in
  match
    List.find_opt (fun s -> s.s_request.Request.gc_mode = Gcheap.Heap.Stw) bases
  with
  | Some s -> s
  | None -> List.hd bases

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

(** Diff [got] against [reference] on exit code, output and final live
    heap.  [None] means behaviourally equal. *)
let diff ~reference got : mismatch option =
  let rendered (o : Measure.run_info) =
    Printf.sprintf "exit=%d %s" o.Measure.o_exit o.Measure.o_output
  in
  let live (o : Measure.run_info) =
    (o.Measure.o_live_objects, o.Measure.o_live_bytes)
  in
  match (reference, got) with
  | Measure.Ran r, Measure.Ran g ->
      if r.Measure.o_exit <> g.Measure.o_exit
         || not (String.equal r.Measure.o_output g.Measure.o_output)
      then Some (Output_diff { exp = rendered r; got = rendered g })
      else if live r <> live g then
        Some (Heap_diff { exp = live r; got = live g })
      else None
  (* Same fault class as the reference counts as agreement: where in the
     program a checking build stops can shift with the schedule, but the
     class of behaviour is what the paper compares. *)
  | Measure.Detected _, Measure.Detected _
  | Measure.Corrupted _, Measure.Corrupted _
  | Measure.Limit _, Measure.Limit _
  | Measure.Exhausted _, Measure.Exhausted _ ->
      None
  | _, Measure.Detected m -> Some (Fault_diff m)
  | _, Measure.Corrupted m -> Some (Corruption_diff m)
  | _, Measure.Limit m -> Some (Limit_diff m)
  | _, Measure.Exhausted m -> Some (Exhausted_diff m)
  | ( ( Measure.Detected _ | Measure.Corrupted _ | Measure.Limit _
      | Measure.Exhausted _ ),
      Measure.Ran g ) ->
      Some
        (Output_diff
           { exp = "a fault (matching the reference)"; got = rendered g })
