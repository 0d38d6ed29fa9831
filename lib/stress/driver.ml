(** The stress driver: fault-injected differential execution with
    schedule shrinking.

    For every target program, every build configuration is run on every
    machine model under a family of injected GC schedules.  Each run is
    diffed against the same subject's uninjected behaviour (schedule
    sensitivity), and each subject's uninjected behaviour is diffed
    against the optimized baseline (cross-configuration agreement).  Any
    failing schedule is minimized with {!Shrink.ddmin} and reported with
    the program points where the minimized collections fire.

    The schedule space is embarrassingly parallel and [p_jobs > 1] fans
    it out over a {!Exec.Pool.t}, preserving the serial report exactly:
    schedules are scanned in chunks, the first failing schedule (by
    schedule index) is the one reported, and [r_runs] counts the runs
    the serial scan would have performed — speculative runs past a
    failure inside a chunk are executed but not counted, so a report is
    a function of the plan, never of the worker count. *)

module Build = Harness.Build
module Request = Harness.Request
module Differ = Harness.Differ
module Measure = Harness.Measure
module Schedule = Machine.Schedule

type mode =
  | Exhaustive of int
      (** every single-collection-point schedule, up to a cap *)
  | Every_n of int list  (** collect at every nth safepoint *)
  | Alloc_points  (** collect at every allocation *)

let mode_name = function
  | Exhaustive cap -> Printf.sprintf "exhaustive(<=%d)" cap
  | Every_n ns ->
      "every-" ^ String.concat "," (List.map string_of_int ns)
  | Alloc_points -> "at-allocs"

type plan = {
  p_matrix : Request.matrix;
      (** the config x machine x analysis x gc-mode cross product every
          target is stressed over, plus sanitizing and ceilings — the
          same matrix record the differ expands *)
  p_modes : mode list option;  (** [None]: choose per target size *)
  p_exhaustive_cap : int;
  p_jobs : int;  (** worker domains; 1 = the reference serial scan *)
  p_trace_dir : string option;
      (** when set, every finding's failing schedule is replayed under a
          span tracer plus a flight recorder, and the Chrome trace and
          the flight-recorder dump (the run's last-N structured GC/VM
          events) are written here, so divergences ship with a
          replayable timeline and their event context.  Capture replays
          are not counted in [r_runs]: reports stay byte-identical. *)
}

let default_plan =
  {
    p_matrix = Request.default_matrix;
    p_modes = None;
    p_exhaustive_cap = 2000;
    p_jobs = 1;
    p_trace_dir = None;
  }

type kind =
  | Divergence of string  (** schedule-sensitive behaviour; mismatch kind *)
  | Corruption  (** the heap sanitizer fired *)
  | Config_gap of string
      (** uninjected behaviour disagrees with the baseline *)

let kind_name = function
  | Divergence k -> "divergence(" ^ k ^ ")"
  | Corruption -> "integrity-violation"
  | Config_gap k -> "config-gap(" ^ k ^ ")"

type finding = {
  f_target : string;
  f_subject : string;
  f_config : Build.config;
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
      (** path of the captured Chrome trace ([p_trace_dir] set) *)
  f_flight : string option;
      (** path of the captured flight-recorder dump ([p_trace_dir] set);
          validates under {!Telemetry.Flight_recorder.check} *)
}

type report = {
  r_findings : finding list;
  r_targets : int;
  r_subjects : int;
  r_runs : int;  (** VM executions, including shrinking *)
}

let unexpected r = List.filter (fun f -> not f.f_expected) r.r_findings

(* ------------------------------------------------------------------ *)

(** Map a fired-point context ("fn, L2, after ...") to the declaration
    site of its enclosing function. *)
let source_loc_of_context fn_locs ctx =
  match String.index_opt ctx ',' with
  | None -> None
  | Some i -> List.assoc_opt (String.sub ctx 0 i) fn_locs

(* A run fails when it diverges from its reference or the heap
   sanitizer fired. *)
let is_fail ~reference obs =
  match obs with
  | Measure.Corrupted _ -> true
  | _ -> Differ.diff ~reference obs <> None

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let sanitize_component s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    s

let capture_path dir ~target ~subject n ext =
  mkdir_p dir;
  Filename.concat dir
    (Printf.sprintf "%s-%s-%d.%s" (sanitize_component target)
       (sanitize_component subject) n ext)

(** One target against the whole matrix. *)
let run_target ?(pool = Exec.Pool.serial) (plan : plan)
    (target : Corpus.target) : finding list * int * int =
  let runs = ref 0 in
  let fn_locs = Corpus.function_locs target.Corpus.t_source in
  let subjects =
    Differ.build_of_matrix ~pool plan.p_matrix target.Corpus.t_source
  in
  (* [observe_raw] may run on a worker domain and must not touch shared
     state; run accounting happens on the submitting thread, in serial
     scan order, so [r_runs] is worker-count independent.  Ceilings and
     sanitizing ride on each subject's request (from the matrix). *)
  let observe_raw ?gc_point_sink ?telemetry ~schedule subject =
    Differ.observe ?gc_point_sink ?telemetry ~schedule subject
  in
  let observe ?gc_point_sink ~schedule subject =
    incr runs;
    observe_raw ?gc_point_sink ~schedule subject
  in
  (* Replay a finding's schedule under a tracer plus a flight recorder;
     uncounted, like any other observe_raw, so capture never changes the
     report. *)
  let trace_seq = ref 0 in
  let capture_trace ~schedule s =
    match plan.p_trace_dir with
    | None -> (None, None)
    | Some dir ->
        let tr = Telemetry.Trace.create () in
        let recorder = Telemetry.Flight_recorder.create () in
        let sink = Telemetry.Sink.make ~trace:tr ~recorder () in
        ignore (observe_raw ~telemetry:sink ~schedule s);
        let path =
          capture_path dir ~target:target.Corpus.t_name
            ~subject:(Differ.subject_name s) !trace_seq
        in
        incr trace_seq;
        let trace_path = path "trace.json" in
        Telemetry.Trace.write_file tr trace_path;
        let flight_path = path "flight.json" in
        Telemetry.Flight_recorder.write_file recorder flight_path;
        (Some trace_path, Some flight_path)
  in
  (* Uninjected behaviour of every subject, and the per-machine baseline. *)
  let auto =
    let obss =
      Exec.Pool.map pool (fun s -> observe_raw ~schedule:Schedule.Auto s)
        subjects
    in
    runs := !runs + List.length subjects;
    List.combine subjects obss
  in
  (* The uninjected behaviour of each machine's reference subject. *)
  let baseline machine = List.assq (Differ.reference subjects machine) auto in
  let findings = ref [] in
  let record f = findings := f :: !findings in
  (* Cross-configuration agreement with no injection at all.  A checking
     build stopping a target with a known pointer bug is the expected
     behaviour from the paper, not a finding. *)
  List.iter
    (fun (s, obs) ->
      if s.Differ.s_request.Request.config <> Build.Base then begin
        let expected_checked_fault =
          s.Differ.s_request.Request.config = Build.Debug_checked
          && target.Corpus.t_checked_fails
          &&
          match obs with Measure.Detected _ -> true | _ -> false
        in
        match
          Differ.diff ~reference:(baseline s.Differ.s_request.Request.machine)
            obs
        with
        | Some m when not expected_checked_fault ->
            let trace, flight = capture_trace ~schedule:Schedule.Auto s in
            record
              {
                f_target = target.Corpus.t_name;
                f_subject = Differ.subject_name s;
                f_config = s.Differ.s_request.Request.config;
                f_kind = Config_gap (Differ.mismatch_kind m);
                f_detail = Differ.describe_mismatch m;
                f_schedule = "auto";
                f_min_points = [];
                f_orig_points = 0;
                f_contexts = [];
                f_expected = false;
                f_trace = trace;
                f_flight = flight;
              }
        | _ -> ()
      end)
    auto;
  (* Schedule families, sized from the baseline's dynamic instruction
     count on each machine. *)
  let safepoints machine =
    match baseline machine with
    | Measure.Ran r -> r.Measure.o_instrs
    | _ -> 0
  in
  let schedules_for machine =
    let t = safepoints machine in
    let modes =
      match plan.p_modes with
      | Some ms -> ms
      | None ->
          if t > 0 && t <= plan.p_exhaustive_cap then
            [ Exhaustive plan.p_exhaustive_cap; Every_n [ 1 ]; Alloc_points ]
          else
            (* Large programs: every forced collection costs a full mark
               and an integrity scan, so sample at two offset strides
               (~16 and ~64 collections) rather than injecting densely. *)
            [ Every_n [ max 1 (t / 16); max 1 ((t / 64) + 1) ] ]
    in
    List.concat_map
      (function
        | Exhaustive cap ->
            List.init (min t cap) (fun k ->
                Schedule.at_list [ k + 1 ])
        | Every_n ns ->
            List.map (fun n -> Schedule.Every (max 1 n)) (List.sort_uniq compare ns)
        | Alloc_points -> [ Schedule.At_allocs ])
      modes
  in
  (* Shrinking: replay fired points as an explicit [At] schedule. *)
  let shrink_and_report s reference fired =
    let fired = List.rev fired in
    let fired_idx = List.map fst fired in
    let still_fails pts =
      let obs =
        observe ~schedule:(Schedule.At (Schedule.points_of_list pts)) s
      in
      is_fail ~reference obs
    in
    let try_seed seed = if seed <> [] && still_fails seed then Some seed else None in
    let seed =
      match try_seed fired_idx with
      | Some s -> Some s
      | None ->
          (* At_allocs points fire inside the allocating call; an [At]
             schedule fires after the indexed instruction, so the
             nearest replay is one safepoint earlier. *)
          try_seed (List.map (fun k -> max 0 (k - 1)) fired_idx)
    in
    match seed with
    | None ->
        (* Not replayable as an explicit point set; report unshrunk. *)
        let contexts =
          List.map
            (fun (k, ctx) -> (k, ctx, source_loc_of_context fn_locs ctx))
            fired
        in
        ([], List.length fired, contexts)
    | Some seed ->
        let min_pts = Shrink.ddmin ~still_fails seed in
        (* Re-run the minimized schedule to capture where its
           collections land. *)
        let captured = ref [] in
        ignore
          (observe
             ~gc_point_sink:(fun k ctx -> captured := (k, ctx) :: !captured)
             ~schedule:(Schedule.At (Schedule.points_of_list min_pts))
             s);
        let contexts =
          List.rev_map
            (fun (k, ctx) -> (k, ctx, source_loc_of_context fn_locs ctx))
            !captured
        in
        (min_pts, List.length fired, contexts)
  in
  (* Scan each subject; stop at its first finding (the shrinker gives a
     minimal witness, further schedules add nothing).  The scan walks the
     schedule space in chunks: a chunk's runs execute concurrently, then
     its results are consumed in schedule order, so the finding — and the
     run count — are those of the serial left-to-right scan. *)
  let chunk_size =
    if Exec.Pool.jobs pool <= 1 then 1 else 4 * Exec.Pool.jobs pool
  in
  List.iter
    (fun (s, reference) ->
      let schedules =
        Array.of_list (schedules_for s.Differ.s_request.Request.machine)
      in
      let n = Array.length schedules in
      let found = ref false in
      let pos = ref 0 in
      while (not !found) && !pos < n do
        let len = min chunk_size (n - !pos) in
        let chunk = List.init len (fun i -> schedules.(!pos + i)) in
        pos := !pos + len;
        let results =
          Exec.Pool.map pool
            (fun schedule ->
              let fired = ref [] in
              let obs =
                observe_raw
                  ~gc_point_sink:(fun k ctx -> fired := (k, ctx) :: !fired)
                  ~schedule s
              in
              (schedule, !fired, obs))
            chunk
        in
        List.iter
          (fun (schedule, fired, obs) ->
            if not !found then begin
              incr runs;
              let mismatch = Differ.diff ~reference obs in
              let corruption =
                match obs with Measure.Corrupted m -> Some m | _ -> None
              in
              if corruption <> None || mismatch <> None then begin
                found := true;
                let min_pts, orig, contexts =
                  shrink_and_report s reference fired
                in
                let kind, detail =
                  match (corruption, mismatch) with
                  | Some m, _ -> (Corruption, m)
                  | None, Some m ->
                      (Divergence (Differ.mismatch_kind m),
                       Differ.describe_mismatch m)
                  | None, None -> assert false
                in
                let trace, flight = capture_trace ~schedule s in
                record
                  {
                    f_target = target.Corpus.t_name;
                    f_subject = Differ.subject_name s;
                    f_config = s.Differ.s_request.Request.config;
                    f_kind = kind;
                    f_detail = detail;
                    f_schedule = Schedule.to_string schedule;
                    f_min_points = min_pts;
                    f_orig_points = orig;
                    f_contexts = contexts;
                    (* Schedule sensitivity of the conventional build is
                       the hazard the paper predicts; everything else must
                       never happen. *)
                    f_expected =
                      corruption = None
                      && s.Differ.s_request.Request.config = Build.Base;
                    f_trace = trace;
                    f_flight = flight;
                  }
              end
            end)
          results
      done)
    auto;
  (List.rev !findings, List.length subjects, !runs)

let run ?(plan = default_plan) (targets : Corpus.target list) : report =
  let findings, subjects, runs =
    Exec.Pool.with_pool ~jobs:plan.p_jobs (fun pool ->
        List.fold_left
          (fun (fs, subs, runs) target ->
            let f, s, r = run_target ~pool plan target in
            (fs @ f, subs + s, runs + r))
          ([], 0, 0) targets)
  in
  {
    r_findings = findings;
    r_targets = List.length targets;
    r_subjects = subjects;
    r_runs = runs;
  }

(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Format.fprintf ppf "%s %s [%s]@,  schedule %s: %s@," f.f_target f.f_subject
    (kind_name f.f_kind) f.f_schedule f.f_detail;
  (match f.f_min_points with
  | [] ->
      if f.f_orig_points > 0 then
        Format.fprintf ppf "  not shrinkable to an explicit point set (%d collection(s) fired)@,"
          f.f_orig_points
  | pts ->
      Format.fprintf ppf "  minimized to %d collection point(s) (from %d): {%s}@,"
        (List.length pts) f.f_orig_points
        (String.concat ", " (List.map string_of_int pts)));
  List.iter
    (fun (k, ctx, loc) ->
      Format.fprintf ppf "    point %d: %s%s@," k ctx
        (match loc with Some l -> " (declared at " ^ l ^ ")" | None -> ""))
    f.f_contexts;
  (match f.f_trace with
  | Some path -> Format.fprintf ppf "  trace captured: %s@," path
  | None -> ());
  match f.f_flight with
  | Some path -> Format.fprintf ppf "  flight recorder dump: %s@," path
  | None -> ()

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "stress: %d target(s), %d subject(s), %d run(s), %d finding(s), %d unexpected@,"
    r.r_targets r.r_subjects r.r_runs
    (List.length r.r_findings)
    (List.length (unexpected r));
  List.iter
    (fun f ->
      Format.fprintf ppf "%s " (if f.f_expected then "[expected]" else "[UNEXPECTED]");
      pp_finding ppf f)
    r.r_findings;
  Format.fprintf ppf "@]"
