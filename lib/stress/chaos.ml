(** The chaos sweep: fault-injected robustness testing.

    Where {!Driver} perturbs *when the collector runs*, this module
    perturbs *whether the runtime's own machinery works*: allocations
    fail on command, supervised tasks crash mid-attempt, and cached build
    artifacts rot in place.  The property under test is the robustness
    identity — under any injected fault, a run either behaves exactly
    like its fault-free reference or stops with a structured diagnostic.
    Corruption, hangs, and silent divergence are findings; everything
    else is recovery, and every recovery is counted.

    Three sweeps, all deterministic functions of the plan (the seed is
    printed with every report so a failing sweep replays exactly):

    - {b allocation failures}: for every subject, every allocation
      ordinal of the fault-free run (sampled above a cap) is failed once
      under the collect-expand policy; a burst run fails all of them at
      once, and a burst that breaks the identity is shrunk with
      {!Shrink.ddmin} to a minimal ordinal set.  Trap-policy probes
      check that the same injections surface as structured
      [Heap_exhausted] outcomes rather than crashes.
    - {b worker faults}: the subject runs are re-executed under
      {!Exec.Pool.map_supervised} with injected worker crashes; the
      supervised report must equal the fault-free one, with the
      restarts accounted for.
    - {b cache corruption}: cached artifacts are rotted via
      {!Harness.Build.corrupt_cached}; the next compile must detect the
      mismatch, rebuild, and behave identically. *)

module Build = Harness.Build
module Request = Harness.Request
module Differ = Harness.Differ
module Measure = Harness.Measure
module Failpoint = Gcheap.Failpoint

type plan = {
  c_matrix : Request.matrix;
      (** the config x machine x gc-mode cross product the sweeps cover *)
  c_seed : int;  (** drives ordinal sampling and fault placement *)
  c_max_points : int;  (** allocation ordinals swept per subject *)
  c_trap_probes : int;  (** trap-policy injections per subject *)
  c_jobs : int;
  c_flight_dir : string option;
      (** replay unexpected alloc-failure findings under a flight
          recorder and write the dumps here (uncounted replays) *)
}

let default_plan =
  {
    c_matrix =
      {
        Request.default_matrix with
        Request.m_configs = [ Build.Base; Build.Safe ];
        Request.m_machines = [ Machine.Machdesc.sparc10 ];
        Request.m_gc_modes = [ Gcheap.Heap.Stw ];
      };
    c_seed = 0;
    c_max_points = 64;
    c_trap_probes = 3;
    c_jobs = 1;
    c_flight_dir = None;
  }

type finding = {
  cf_target : string;
  cf_subject : string;
  cf_sweep : string;  (** "alloc-failure" | "worker-fault" | "cache" *)
  cf_kind : string;  (** "hang" | "corruption" | "divergence" | ... *)
  cf_points : int list;
      (** injected allocation ordinals (minimized for burst findings) *)
  cf_detail : string;
  cf_expected : bool;
      (** a known hazard of the conventional build perturbed by the
          injection-triggered collection, not a robustness failure *)
  cf_flight : string option;
      (** captured flight-recorder dump of the injected run *)
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

let unexpected r = List.filter (fun f -> not f.cf_expected) r.c_findings

(* ------------------------------------------------------------------ *)
(* Allocation-failure sweep                                            *)
(* ------------------------------------------------------------------ *)

(* Sample [count] ordinals from 1..total, deterministically from the
   seed: an even stride with a seeded offset, so dense programs are
   covered end to end and a replay with the same seed picks the same
   ordinals. *)
let sample_ordinals ~seed ~count total =
  if total <= 0 || count <= 0 then []
  else if total <= count then List.init total (fun i -> i + 1)
  else
    let stride = total / count in
    let offset = Hashtbl.hash (seed, total) mod stride in
    List.init count (fun i -> (i * stride) + offset + 1)

type class_ = Recovered | Structured | Diverged of string | Broken of string

(* Classify one injected run against its fault-free reference.  The
   budget turns a hang into a [Limit] stop, which is a robustness
   failure: injection must never make a terminating program loop. *)
let classify_injected ~reference obs =
  match obs with
  | Measure.Exhausted _ -> Structured
  | Measure.Corrupted m -> Broken ("corruption: " ^ m)
  | Measure.Limit m -> Broken ("hang (budget hit): " ^ m)
  | Measure.Ran _ | Measure.Detected _ -> (
      match Differ.diff ~reference obs with
      | None -> Recovered
      | Some m ->
          Diverged
            (Differ.mismatch_kind m ^ ": " ^ Differ.describe_mismatch m))

(** Sweep injected allocation failures over one subject.  Returns the
    findings plus the counter deltas. *)
let sweep_subject ~pool ~plan ~(target : Corpus.target) subject =
  (* [exec] is pure (no shared state): it runs on worker domains.  All
     accounting happens on the submitting thread, in ordinal order, so
     the report is a function of the plan, never the worker count. *)
  let base =
    { subject.Differ.s_request with Request.schedule = Machine.Schedule.Auto }
  in
  let exec ?telemetry req =
    Measure.exec ?telemetry req subject.Differ.s_built
  in
  let runs = ref 1 and injections = ref 0 in
  let recovered = ref 0 and structured = ref 0 and emergencies = ref 0 in
  let findings = ref [] in
  match exec base with
  | exception _ ->
      (* A reference that does not even run is a matter for the stress
         driver, not the chaos sweep. *)
      ([], !runs, 0, 0, 0, 0)
  | (Measure.Detected _ | Measure.Corrupted _ | Measure.Limit _
    | Measure.Exhausted _) ->
      ([], !runs, 0, 0, 0, 0)
  | Measure.Ran ref_info as reference ->
      (* Injection adds collections, never instructions, but give the
         budget generous slack before calling a run a hang. *)
      let budget = max 10_000 (4 * ref_info.Measure.o_instrs) in
      (* The fault-free request with [fp] failing under [oom_policy]. *)
      let injected ~oom_policy fp =
        {
          base with
          Request.oom_policy;
          Request.alloc_failpoints = fp;
          Request.max_instrs = Some budget;
        }
      in
      let ordinals =
        sample_ordinals ~seed:plan.c_seed ~count:plan.c_max_points
          ref_info.Measure.o_allocs
      in
      let divergence_expected =
        target.Corpus.t_base_vulnerable
        && subject.Differ.s_request.Request.config = Build.Base
      in
      (* Replay a finding's injection under a flight recorder: the dump
         ships the run's last-N GC/emergency events with the finding.
         Uncounted, so the report stays a function of the plan. *)
      let flight_seq = ref 0 in
      let capture_flight ~oom_policy fp =
        match plan.c_flight_dir with
        | None -> None
        | Some dir ->
            let recorder = Telemetry.Flight_recorder.create () in
            let sink = Telemetry.Sink.make ~recorder () in
            ignore (exec ~telemetry:sink (injected ~oom_policy fp));
            let path =
              Driver.capture_path dir ~target:target.Corpus.t_name
                ~subject:(Differ.subject_name subject) !flight_seq
                "flight.json"
            in
            incr flight_seq;
            Telemetry.Flight_recorder.write_file recorder path;
            Some path
      in
      let record ?flight ~kind ~points ~detail ~expected () =
        findings :=
          {
            cf_target = target.Corpus.t_name;
            cf_subject = Differ.subject_name subject;
            cf_sweep = "alloc-failure";
            cf_kind = kind;
            cf_points = points;
            cf_detail = detail;
            cf_expected = expected;
            cf_flight = flight;
          }
          :: !findings
      in
      (* Pure injected run: the observation plus the emergency
         collections it took to recover. *)
      let run_with fp =
        match exec (injected ~oom_policy:Gcheap.Heap.Collect_expand fp) with
        | Measure.Ran r as o -> (o, r.Measure.o_emergency)
        | o -> (o, 0)
      in
      (* Single-point sweep: fail each sampled ordinal once.  The runs
         are independent, so fan them out; counters fold serially in
         ordinal order. *)
      let singles =
        Exec.Pool.map pool
          (fun k ->
            let obs, emg = run_with (Failpoint.Nth k) in
            (k, classify_injected ~reference obs, emg))
          ordinals
      in
      runs := !runs + List.length ordinals;
      injections := !injections + List.length ordinals;
      List.iter
        (fun (k, cls, emg) ->
          emergencies := !emergencies + emg;
          match cls with
          | Recovered -> incr recovered
          | Structured -> incr structured
          | Diverged detail ->
              if divergence_expected then incr recovered
              else
                record ~kind:"divergence" ~points:[ k ] ~detail
                  ~expected:false
                  ?flight:
                    (capture_flight ~oom_policy:Gcheap.Heap.Collect_expand
                       (Failpoint.Nth k))
                  ()
          | Broken detail ->
              record
                ~kind:
                  (if String.length detail >= 4 && String.sub detail 0 4 = "hang"
                   then "hang"
                   else "corruption")
                ~points:[ k ] ~detail ~expected:false
                ?flight:
                  (capture_flight ~oom_policy:Gcheap.Heap.Collect_expand
                     (Failpoint.Nth k))
                ())
        singles;
      (* Burst run: fail every sampled ordinal in one execution, then
         shrink a broken burst to a minimal ordinal set. *)
      if ordinals <> [] && not divergence_expected then begin
        incr injections;
        let classify pts =
          incr runs;
          let obs, emg = run_with (Failpoint.at_list pts) in
          emergencies := !emergencies + emg;
          classify_injected ~reference obs
        in
        let is_broken pts =
          match classify pts with
          | Recovered | Structured -> false
          | Diverged _ | Broken _ -> true
        in
        if is_broken ordinals then begin
          let min_pts = Shrink.ddmin ~still_fails:is_broken ordinals in
          let detail =
            match classify min_pts with
            | Diverged d -> d
            | Broken d -> d
            | Recovered | Structured -> "not reproducible after shrinking"
          in
          record ~kind:"burst" ~points:min_pts ~detail ~expected:false
            ?flight:
              (capture_flight ~oom_policy:Gcheap.Heap.Collect_expand
                 (Failpoint.at_list min_pts))
            ()
        end
        else incr recovered
      end;
      (* Trap-policy probes: the same injections under [Trap] must stop
         as structured [Heap_exhausted] outcomes — never anything else. *)
      let probes =
        sample_ordinals ~seed:(plan.c_seed + 1) ~count:plan.c_trap_probes
          ref_info.Measure.o_allocs
      in
      List.iter
        (fun k ->
          incr injections;
          incr runs;
          match
            exec (injected ~oom_policy:Gcheap.Heap.Trap (Failpoint.Nth k))
          with
          | Measure.Exhausted _ -> incr structured
          | o ->
              record ~kind:"trap-leak" ~points:[ k ]
                ~detail:
                  ("trap policy produced " ^ Measure.describe o
                 ^ " instead of a structured heap-exhausted stop")
                ~expected:false
                ?flight:
                  (capture_flight ~oom_policy:Gcheap.Heap.Trap
                     (Failpoint.Nth k))
                ())
        probes;
      ( List.rev !findings,
        !runs,
        !injections,
        !recovered,
        !structured,
        !emergencies )

(* ------------------------------------------------------------------ *)
(* Worker-fault sweep                                                  *)
(* ------------------------------------------------------------------ *)

(** Re-run every subject under a supervised pool, crashing roughly a
    third of the first attempts (seed-deterministic).  The supervised
    outcome values must equal the fault-free observations. *)
let sweep_workers ~pool ~plan ~(target : Corpus.target) subjects =
  let observe subject =
    Differ.observe ~schedule:Machine.Schedule.Auto subject
  in
  let reference = List.map observe subjects in
  let faulted = ref 0 in
  let should_fault idx = Hashtbl.hash (plan.c_seed, target.Corpus.t_name, idx) mod 3 = 0 in
  let outcomes, stats =
    Exec.Pool.map_supervised pool
      ~policy:{ Exec.Pool.default_policy with Exec.Pool.seed = plan.c_seed }
      (fun ctx (idx, subject) ->
        ctx.Exec.Pool.tick ();
        if ctx.Exec.Pool.attempt = 1 && should_fault idx then
          raise (Exec.Pool.Crash "injected worker fault");
        observe subject)
      (List.mapi (fun i s -> (i, s)) subjects)
  in
  List.iteri (fun i _ -> if should_fault i then incr faulted) subjects;
  let findings = ref [] in
  List.iteri
    (fun i outcome ->
      let subject = List.nth subjects i in
      let expected = List.nth reference i in
      match outcome with
      | Exec.Pool.Done { value; _ } when value = expected -> ()
      | Exec.Pool.Done { value; _ } ->
          findings :=
            {
              cf_target = target.Corpus.t_name;
              cf_subject = Differ.subject_name subject;
              cf_sweep = "worker-fault";
              cf_kind = "divergence";
              cf_points = [];
              cf_detail =
                Printf.sprintf "supervised run saw %s, fault-free saw %s"
                  (Measure.describe value)
                  (Measure.describe expected);
              cf_expected = false;
              cf_flight = None;
            }
            :: !findings
      | Exec.Pool.Quarantined { reason; attempts } ->
          findings :=
            {
              cf_target = target.Corpus.t_name;
              cf_subject = Differ.subject_name subject;
              cf_sweep = "worker-fault";
              cf_kind = "quarantine";
              cf_points = [];
              cf_detail =
                Printf.sprintf
                  "single injected fault quarantined the task (%s after %d \
                   attempt(s))"
                  reason attempts;
              cf_expected = false;
              cf_flight = None;
            }
            :: !findings)
    outcomes;
  (List.rev !findings, 2 * List.length subjects, !faulted, stats)

(* ------------------------------------------------------------------ *)
(* Cache-corruption sweep                                              *)
(* ------------------------------------------------------------------ *)

(** Rot every subject's cached artifact, then recompile: the cache must
    detect the stale fingerprint, rebuild, and the rebuilt artifact must
    behave exactly like the reference. *)
let sweep_cache ~(target : Corpus.target) subjects =
  let findings = ref [] in
  let corrupted = ref 0 and recovered = ref 0 and runs = ref 0 in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun subject ->
      let req = subject.Differ.s_request in
      let options = Request.build_options req in
      let key = Request.cache_key req in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let before = (Build.cache_stats ()).Exec.Cache.corruptions in
        (* [build_matrix] populated the cache; observe the artifact's
           behaviour, rot it, recompile, and compare. *)
        let observe () =
          incr runs;
          Differ.observe ~schedule:Machine.Schedule.Auto subject
        in
        let reference = observe () in
        if Build.corrupt_cached ~options req.Request.config target.Corpus.t_source
        then begin
          incr corrupted;
          let rebuilt =
            Build.compile ~options req.Request.config target.Corpus.t_source
          in
          let after = (Build.cache_stats ()).Exec.Cache.corruptions in
          let obs =
            Differ.observe ~schedule:Machine.Schedule.Auto
              { subject with Differ.s_built = rebuilt }
          in
          incr runs;
          if after <= before then
            findings :=
              {
                cf_target = target.Corpus.t_name;
                cf_subject = Differ.subject_name subject;
                cf_sweep = "cache";
                cf_kind = "undetected-corruption";
                cf_points = [];
                cf_detail =
                  "corrupt artifact served without a fingerprint mismatch";
                cf_expected = false;
                cf_flight = None;
              }
              :: !findings
          else if obs <> reference then
            findings :=
              {
                cf_target = target.Corpus.t_name;
                cf_subject = Differ.subject_name subject;
                cf_sweep = "cache";
                cf_kind = "divergence";
                cf_points = [];
                cf_detail =
                  Printf.sprintf "rebuilt artifact saw %s, reference saw %s"
                    (Measure.describe obs)
                    (Measure.describe reference);
                cf_expected = false;
                cf_flight = None;
              }
              :: !findings
          else incr recovered
        end
      end)
    subjects;
  (List.rev !findings, !runs, !corrupted, !recovered)

(* ------------------------------------------------------------------ *)

let run ?(plan = default_plan) (targets : Corpus.target list) : report =
  Exec.Pool.with_pool ~jobs:plan.c_jobs (fun pool ->
      let acc =
        ref
          {
            c_plan_seed = plan.c_seed;
            c_subject_count = 0;
            c_injections = 0;
            c_recovered = 0;
            c_structured = 0;
            c_emergency_collections = 0;
            c_worker_faults = 0;
            c_worker_restarts = 0;
            c_worker_retries = 0;
            c_quarantined = 0;
            c_cache_corruptions = 0;
            c_cache_recovered = 0;
            c_runs = 0;
            c_findings = [];
          }
      in
      List.iter
        (fun target ->
          let subjects =
            Differ.build_of_matrix ~pool plan.c_matrix target.Corpus.t_source
          in
          let r = !acc in
          let r =
            { r with c_subject_count = r.c_subject_count + List.length subjects }
          in
          (* allocation failures *)
          let r =
            List.fold_left
              (fun r subject ->
                let fs, runs, inj, rec_, str, emg =
                  sweep_subject ~pool ~plan ~target subject
                in
                {
                  r with
                  c_findings = r.c_findings @ fs;
                  c_runs = r.c_runs + runs;
                  c_injections = r.c_injections + inj;
                  c_recovered = r.c_recovered + rec_;
                  c_structured = r.c_structured + str;
                  c_emergency_collections = r.c_emergency_collections + emg;
                })
              r subjects
          in
          (* worker faults *)
          let fs, runs, faults, stats = sweep_workers ~pool ~plan ~target subjects in
          let r =
            {
              r with
              c_findings = r.c_findings @ fs;
              c_runs = r.c_runs + runs;
              c_worker_faults = r.c_worker_faults + faults;
              c_worker_restarts = r.c_worker_restarts + stats.Exec.Pool.sup_restarts;
              c_worker_retries = r.c_worker_retries + stats.Exec.Pool.sup_retries;
              c_quarantined = r.c_quarantined + stats.Exec.Pool.sup_quarantined;
            }
          in
          (* cache corruption *)
          let fs, runs, corr, rec_ = sweep_cache ~target subjects in
          acc :=
            {
              r with
              c_findings = r.c_findings @ fs;
              c_runs = r.c_runs + runs;
              c_cache_corruptions = r.c_cache_corruptions + corr;
              c_cache_recovered = r.c_cache_recovered + rec_;
            })
        targets;
      !acc)

(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Format.fprintf ppf "%s %s [%s/%s]@,  %s@," f.cf_target f.cf_subject
    f.cf_sweep f.cf_kind f.cf_detail;
  (match f.cf_points with
  | [] -> ()
  | pts ->
      Format.fprintf ppf "  injected allocation ordinal(s): {%s}@,"
        (String.concat ", " (List.map string_of_int pts)));
  match f.cf_flight with
  | Some path -> Format.fprintf ppf "  flight recorder dump: %s@," path
  | None -> ()

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "chaos: seed %d, %d subject(s), %d run(s), %d injected allocation \
     failure(s)@,"
    r.c_plan_seed r.c_subject_count r.c_runs r.c_injections;
  Format.fprintf ppf
    "  recovered %d, structured %d, emergency collection(s) %d@,"
    r.c_recovered r.c_structured r.c_emergency_collections;
  Format.fprintf ppf
    "  worker fault(s) %d, restart(s) %d, retrie(s) %d, quarantined %d@,"
    r.c_worker_faults r.c_worker_restarts r.c_worker_retries r.c_quarantined;
  Format.fprintf ppf "  cache corruption(s) %d, recovered %d@,"
    r.c_cache_corruptions r.c_cache_recovered;
  Format.fprintf ppf "  %d finding(s), %d unexpected@,"
    (List.length r.c_findings)
    (List.length (unexpected r));
  if unexpected r <> [] then
    Format.fprintf ppf "  replay with --chaos-seed %d@," r.c_plan_seed;
  List.iter
    (fun f ->
      Format.fprintf ppf "%s "
        (if f.cf_expected then "[expected]" else "[UNEXPECTED]");
      pp_finding ppf f)
    r.c_findings;
  Format.fprintf ppf "@]"
