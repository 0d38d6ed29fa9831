(* gcsafec: the GC-safety preprocessor, checker and runner.

   Subcommands:
     annotate    transform C source (GC-safe or checked mode) and print it
     check       run the pointer-hiding source checker
     run         build under a configuration and execute on the VM
     ir          dump the compiled (optimized, register-allocated) IR
     tables      regenerate the paper's tables and the ablations
     stress      fault-injected differential stress over the build matrix
                 (--chaos adds allocation-failure, worker-fault and
                 cache-corruption sweeps)
     profile     allocation-site heap profile (drag, peak-live) per analysis
     trace-check validate a Chrome trace-event JSON file or a
                 flight-recorder dump
     heap-census per-collection heap census: size classes, free-page pool,
                 ages, card-table dirty ratio, fragmentation
     serve       service harness over a JSON-lines request stream (stdin)
     bomb        open-loop request bombardment with a deterministic report
                 (--events streams windowed metrics + flight-recorder
                 events; --flight-dump ships the ring)

   Exit codes (see Harness.Diagnostics): 0 success, 1 finding/divergence,
   2 source or input error, 3 runtime fault detected, 4 resource limit,
   5 heap corruption, 6 heap exhausted (out of memory under a hard heap
   limit), 7 task quarantined (a supervised task exhausted its attempt
   cap).

   Parallelism and caching: builds are memoized in a process-wide
   content-addressed cache (--no-cache rebuilds every time); the stress
   and tables subcommands fan work out over --jobs worker domains with
   output byte-identical to --jobs 1. *)

open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let handle_errors = Harness.Diagnostics.handle

(* --- the knob table ------------------------------------------------------ *)

(* Each Harness.Request knob is defined once here, and every subcommand
   that takes it composes that definition.  A conv delegates to the module
   that owns the knob's spelling — the same function Request.of_json uses —
   so the command line and the serve wire format accept exactly one
   spelling per knob. *)

let knob_conv ~err of_string to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "%s %s" err s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (to_string v))

(* a list knob: one spelling of [conv], or one of its named [aliases] *)
let list_conv ~aliases conv =
  let parse s =
    match List.assoc_opt s aliases with
    | Some vs -> Ok vs
    | None -> Result.map (fun v -> [ v ]) (Arg.conv_parser conv s)
  in
  let print =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
      (Arg.conv_printer conv)
  in
  Arg.conv (parse, print)

let machine_conv =
  knob_conv ~err:"unknown machine" Machine.Machdesc.by_name (fun m ->
      m.Machine.Machdesc.md_name)

let analysis_conv =
  knob_conv ~err:"unknown analysis" Gcsafe.Mode.analysis_of_string
    Gcsafe.Mode.analysis_to_string

let gc_mode_conv =
  knob_conv ~err:"unknown gc mode" Gcheap.Heap.gc_mode_of_string
    Gcheap.Heap.gc_mode_name

(* the analysis list knobs' "both": fully annotated and analysis-pruned *)
let both_analyses = [ Gcsafe.Mode.A_none; Gcsafe.Mode.A_flow ]

let analyses_conv =
  list_conv ~aliases:[ ("both", both_analyses) ] analysis_conv

let config_arg =
  let doc = "Build configuration: base, safe, safe-peep, debug or checked." in
  Arg.(
    value
    & opt
        (knob_conv ~err:"unknown configuration" Harness.Build.config_of_string
           Harness.Build.config_id)
        Harness.Build.Safe
    & info [ "config"; "c" ] ~docv:"CONFIG" ~doc)

let machine_arg =
  let doc = "Machine model: sparc2, sparc10 or pentium90." in
  Arg.(
    value
    & opt machine_conv Machine.Machdesc.sparc10
    & info [ "machine" ] ~docv:"MACHINE" ~doc)

let analysis_arg =
  let doc =
    "Dataflow analysis pruning annotation sites: 'flow' (the lib/analysis \
     clients, the default) or 'none' (the paper's algorithm verbatim)."
  in
  Arg.(
    value
    & opt analysis_conv Gcsafe.Mode.A_flow
    & info [ "analysis" ] ~docv:"ANALYSIS" ~doc)

let gc_mode_arg =
  let doc =
    "Collector mode: 'stw' (the paper's stop-the-world mark-sweep, the \
     default), 'gen' (generational: card-marking write barrier, minor \
     collections over young objects, full majors on the usual threshold) \
     or 'inc' (incremental: snapshot-at-the-beginning marking sliced \
     into budget-bounded increments at allocation GC points; see \
     --gc-pause-budget)."
  in
  Arg.(
    value
    & opt gc_mode_conv Gcheap.Heap.default_config.mode
    & info [ "gc-mode" ] ~docv:"MODE" ~doc)

let gc_threshold_arg =
  let doc =
    "Allocation volume (bytes) between automatic collections.  Default: \
     the VM's, except for profile (2048)."
  in
  Arg.(value & opt (some int) None & info [ "gc-threshold" ] ~docv:"BYTES" ~doc)

let gc_pause_budget_arg =
  let doc =
    "Incremental-mode pause budget: words of collector work per marking \
     increment (the deterministic VM-tick clock).  Only meaningful with \
     --gc-mode inc; run also prints a one-line increment summary on \
     stderr."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "gc-pause-budget" ] ~docv:"WORDS" ~doc)

let gc_schedule_arg =
  let doc =
    "Forced-collection schedule: 'auto' (allocation volume triggers \
     collections, the default), 'every-N' (collect at every Nth \
     instruction), 'at:{K,...}' (collect right after the listed \
     instruction indices — the spelling stress reports print) or \
     'at-allocs' (collect at every allocation).  The same spelling as the \
     serve wire format's \"schedule\" field."
  in
  Arg.(
    value
    & opt
        (knob_conv ~err:"bad schedule" Machine.Schedule.of_string
           Machine.Schedule.to_string)
        Machine.Schedule.Auto
    & info [ "gc-schedule" ] ~docv:"SPEC" ~doc)

let max_instrs_arg =
  let doc = "Step ceiling: abort with a limit diagnostic after N instructions." in
  Arg.(value & opt (some int) None & info [ "max-instrs" ] ~docv:"N" ~doc)

let max_heap_arg =
  let doc = "Heap ceiling in bytes: abort with a limit diagnostic beyond it." in
  Arg.(value & opt (some int) None & info [ "max-heap" ] ~docv:"BYTES" ~doc)

let heap_limit_arg =
  let doc =
    "Hard heap ceiling in words (8 bytes each); 0 means unlimited.  An \
     allocation the ceiling blocks follows --oom-policy instead of growing \
     the arena."
  in
  Arg.(
    value
    & opt int Gcheap.Heap.default_config.heap_limit_words
    & info [ "heap-limit" ] ~docv:"WORDS" ~doc)

let oom_policy_arg =
  let doc =
    "What an allocation that cannot be satisfied under --heap-limit does: \
     'collect-expand' (run an emergency collection, retry, grow within the \
     limit, and only then stop — the default) or 'trap' (stop immediately \
     with a structured heap-exhausted diagnostic)."
  in
  Arg.(
    value
    & opt
        (knob_conv ~err:"unknown oom policy" Gcheap.Heap.oom_policy_of_string
           Gcheap.Heap.oom_policy_name)
        Gcheap.Heap.default_config.oom_policy
    & info [ "oom-policy" ] ~docv:"POLICY" ~doc)

let alloc_fail_arg =
  let doc =
    "Inject deterministic allocation failures: 'nth:K' (the Kth allocation), \
     'every:K', or a comma-separated ordinal list.  Each failure follows \
     --oom-policy (an emergency collection under collect-expand, a \
     structured stop under trap)."
  in
  Arg.(
    value
    & opt
        (knob_conv ~err:"bad failpoint spec" Gcheap.Failpoint.of_string
           Gcheap.Failpoint.to_string)
        Gcheap.Heap.default_config.failpoints
    & info [ "alloc-fail" ] ~docv:"PLAN" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel subcommands (stress, tables).  Output is \
     byte-identical to --jobs 1; the default is the machine's recommended \
     domain count."
  in
  Arg.(
    value
    & opt int (Exec.Pool.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Disable the process-wide content-addressed build cache (every build \
     recompiles from source)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let apply_cache_flag no_cache =
  if no_cache then Harness.Build.set_cache_enabled false

(* The service's logical build tier reads each request's [use_cache], not
   the process-wide switch, so [--no-cache] must also mark the requests
   themselves or the report counts hits no build ever had. *)
let mark_no_cache no_cache (req : Harness.Request.t) =
  if no_cache then { req with Harness.Request.use_cache = false } else req

let json_flag_arg =
  let doc = "Emit one JSON document instead of tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* --- the program source -------------------------------------------------- *)

let file_doc = "C source file ('-' for standard input)."

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:file_doc)

(* FILE or --workload NAME, as (name, text).  Names resolve through the
   stress corpus, so every target a stress report names replays here.  The
   term yields a thunk: the command body forces it inside [handle_errors],
   where a read failure becomes a structured diagnostic. *)
let source_term =
  let workload_arg =
    let doc =
      "Use a registered workload (cordtest, cfrac, gawk, gs, ...) or stress \
       corpus program (hazard, indexfold, strcopy, interior, churn) instead \
       of a FILE."
    in
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc)
  in
  let opt_file_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:file_doc)
  in
  let resolve workload file () =
    match (workload, file) with
    | Some w, None -> (
        match Stress.Corpus.by_name w with
        | Some t -> (w, t.Stress.Corpus.t_source)
        | None ->
            Printf.eprintf "unknown workload: %s\n" w;
            exit 2)
    | None, Some f -> (f, read_input f)
    | Some _, Some _ ->
        Printf.eprintf "give either FILE or --workload, not both\n";
        exit 2
    | None, None ->
        Printf.eprintf "a FILE argument or --workload is required\n";
        exit 2
  in
  Term.(const resolve $ workload_arg $ opt_file_arg)

(* build exactly what a request names: its config, source and options *)
let build ?telemetry (req : Harness.Request.t) =
  Harness.Build.compile ?telemetry
    ~options:(Harness.Request.build_options req)
    req.Harness.Request.config req.Harness.Request.source

(* the diagnostic class of a run *)
let classify_run o = Harness.Outcome.classify (Harness.Outcome.of_measure o)

(* a run that did not complete: its diagnostic, then its exit code *)
let exit_with o =
  let outcome = classify_run o in
  Harness.Diagnostics.report outcome (Harness.Measure.describe o);
  exit (Harness.Diagnostics.exit_code outcome)

(* --- annotate ----------------------------------------------------------- *)

let annotate_cmd =
  let mode_arg =
    let doc = "Insertion mode: 'safe' (KEEP_LIVE) or 'checked' (GC_same_obj)." in
    let of_string = function
      | "safe" -> Some Gcsafe.Mode.Safe
      | "checked" -> Some Gcsafe.Mode.Checked
      | _ -> None
    in
    Arg.(
      value
      & opt
          (knob_conv ~err:"unknown mode" of_string Gcsafe.Mode.to_string)
          Gcsafe.Mode.Safe
      & info [ "mode"; "m" ] ~docv:"MODE" ~doc)
  in
  let naive_arg =
    let doc = "Disable optimization (1): annotate even plain copies." in
    Arg.(value & flag & info [ "naive" ] ~doc)
  in
  let heuristic_arg =
    let doc = "Enable optimization (3): slowly-varying loop base pointers." in
    Arg.(value & flag & info [ "loop-heuristic" ] ~doc)
  in
  let calls_only_arg =
    let doc =
      "Enable optimization (4): assume collections trigger only at call \
       sites and skip annotations in call-free statements."
    in
    Arg.(value & flag & info [ "calls-only" ] ~doc)
  in
  let base_stores_arg =
    let doc =
      "Checked mode only: verify the Extensions-section discipline that \
       only base pointers are stored into the heap."
    in
    Arg.(value & flag & info [ "check-base-stores" ] ~doc)
  in
  let patch_arg =
    let doc =
      "Emit the annotated program as edits to the original text: each \
       top-level expression the annotation changed is replaced, temporaries \
       are declared after the function's opening brace, and all other text \
       keeps its formatting and comments.  Every other option applies as \
       without --patch."
    in
    Arg.(value & flag & info [ "patch" ] ~doc)
  in
  let stats_arg =
    let doc =
      "Print per-rule insertion and per-analysis suppression counts to \
       stderr as one JSON object."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let stats_out_arg =
    let doc =
      "Write the --stats output to $(docv) instead of stderr (implies \
       --stats)."
    in
    Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)
  in
  (* one JSON object on one line: the CI regression guard jq-parses it *)
  let stats_json ~source_name ~mode ~analysis (r : Gcsafe.Annotate.result) =
    let field k v = Printf.sprintf "%S:%s" k v in
    let str s = Printf.sprintf "%S" s in
    let counts pairs name_of =
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, n) -> field (name_of k) (string_of_int n))
             pairs)
      ^ "}"
    in
    "{"
    ^ String.concat ","
        [
          field "file" (str source_name);
          field "mode" (str (Gcsafe.Mode.to_string mode));
          field "analysis" (str (Gcsafe.Mode.analysis_to_string analysis));
          field "total" (string_of_int r.Gcsafe.Annotate.keep_live_count);
          field "inserted"
            (counts r.Gcsafe.Annotate.stats.Gcsafe.Annotate.st_by_rule
               Gcsafe.Annotate.rule_name);
          field "suppressed"
            (counts r.Gcsafe.Annotate.stats.Gcsafe.Annotate.st_by_reason
               Gcsafe.Annotate.reason_name);
          field "by_func"
            (counts r.Gcsafe.Annotate.stats.Gcsafe.Annotate.st_by_func
               (fun f -> f));
        ]
    ^ "}"
  in
  let run mode analysis naive heuristic calls_only base_stores patch stats
      stats_out source =
    handle_errors (fun () ->
        let source_name, src = source () in
        let ast = Csyntax.Parser.parse_program src in
        let opts =
          {
            (Gcsafe.Mode.default mode) with
            Gcsafe.Mode.suppress_copies = not naive;
            Gcsafe.Mode.calls_only;
            Gcsafe.Mode.check_base_stores = base_stores;
            Gcsafe.Mode.analysis;
          }
        in
        let r = Gcsafe.Annotate.run ~opts ast in
        let program =
          if heuristic && mode = Gcsafe.Mode.Safe then
            Gcsafe.Loop_heuristic.apply r.Gcsafe.Annotate.program
          else r.Gcsafe.Annotate.program
        in
        print_string
          (if patch then Gcsafe.Patch_mode.emit ~source:src ~original:ast program
           else Csyntax.Pretty.program_to_string program);
        let line = stats_json ~source_name ~mode ~analysis r in
        match stats_out with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (line ^ "\n"))
        | None -> if stats then Printf.eprintf "%s\n" line)
  in
  let doc = "annotate C source for GC-safety or pointer-arithmetic checking" in
  Cmd.v
    (Cmd.info "annotate" ~doc)
    Term.(
      const run $ mode_arg $ analysis_arg $ naive_arg $ heuristic_arg
      $ calls_only_arg $ base_stores_arg $ patch_arg $ stats_arg
      $ stats_out_arg $ source_term)

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let run file =
    handle_errors (fun () ->
        let src = read_input file in
        let ast, _env = Csyntax.Typecheck.check_source src in
        let diags = Gcsafe.Source_check.check_program ast in
        List.iter
          (fun d -> Format.printf "%a@." Gcsafe.Source_check.pp_diagnostic d)
          diags;
        let warnings = Gcsafe.Source_check.warnings diags in
        if warnings <> [] then exit 1)
  in
  let doc = "warn about pointer-hiding constructs (the paper's source checks)" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg)

(* --- run -------------------------------------------------------------------- *)

let run_cmd =
  let integrity_arg =
    let doc = "Run the heap-integrity sanitizer after every collection." in
    Arg.(value & flag & info [ "check-integrity" ] ~doc)
  in
  let stats_arg =
    let doc = "Print cycle/instruction/GC statistics to stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Record a Chrome trace-event timeline (build and VM spans, GC pauses, \
       heap counters) and write it to $(docv) — loadable in Perfetto or \
       chrome://tracing."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Collect the telemetry registry (VM step/dispatch counters, GC pause \
       histogram, cache traffic) and print its snapshot to stderr."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let run config machine analysis gc_mode gc_threshold gc_pause_budget schedule
      integrity max_instrs max_heap heap_limit oom_policy alloc_fail stats trace
      metrics no_cache source =
    handle_errors (fun () ->
        apply_cache_flag no_cache;
        let _, src = source () in
        let tracer = Option.map (fun _ -> Telemetry.Trace.create ()) trace in
        let oom_summary =
          heap_limit > 0 || alloc_fail <> Gcheap.Failpoint.Never
        in
        (* the OOM summary reads its counts from the VM's metrics, which
           a run stopped by the heap still reports *)
        let telemetry =
          if trace <> None || metrics || oom_summary then
            Some (Telemetry.Sink.make ?trace:tracer ())
          else Telemetry.Sink.none
        in
        let finish_telemetry () =
          (match (trace, tracer) with
          | Some path, Some tr -> Telemetry.Trace.write_file tr path
          | _ -> ());
          if metrics then
            Format.eprintf "%a@." Telemetry.Metrics.pp
              (Telemetry.Metrics.snapshot
                 (Telemetry.Sink.metrics telemetry))
        in
        let req =
          Harness.Request.make ~config ~machine ~analysis ~gc_mode ~schedule
            ~check_integrity:integrity ?gc_threshold ?gc_pause_budget
            ?max_instrs ?max_heap ~heap_limit ~oom_policy
            ~alloc_failpoints:alloc_fail src
        in
        let b = build ?telemetry req in
        (* one line, structured, on stderr — stdout stays byte-identical
           for the determinism diffs *)
        let summary outcome =
          if oom_summary then begin
            let snap =
              Telemetry.Metrics.snapshot (Telemetry.Sink.metrics telemetry)
            in
            let counter name =
              match Telemetry.Metrics.find snap name with
              | Some (Telemetry.Metrics.Counter n) -> n
              | _ -> 0
            in
            Printf.eprintf
              "gcsafec: outcome=%s policy=%s heap-limit=%d \
               emergency-collections=%d injected-failures=%d\n"
              (Harness.Diagnostics.outcome_name outcome)
              (Gcheap.Heap.oom_policy_name oom_policy)
              heap_limit
              (counter "vm/gc/emergency_collections")
              (counter "vm/gc/injected_failures")
          end
        in
        (* same one-line stderr style as the OOM summary above *)
        let pause_summary (r : Harness.Measure.run_info) =
          Printf.eprintf
            "gcsafec: gc-mode=%s pause-budget=%d increments=%d \
             max-increment-words=%d budget-overruns=%d\n"
            (Gcheap.Heap.gc_mode_name gc_mode)
            (Option.value ~default:0 gc_pause_budget)
            r.Harness.Measure.o_increments r.Harness.Measure.o_inc_max_pause
            r.Harness.Measure.o_inc_overruns
        in
        match Harness.Measure.exec ?telemetry req b with
        | Harness.Measure.Ran r ->
            print_string r.Harness.Measure.o_output;
            finish_telemetry ();
            summary Harness.Diagnostics.Ok;
            if gc_pause_budget <> None then pause_summary r;
            if stats then
              Printf.eprintf
                "config=%s machine=%s instrs=%d cycles=%d collections=%d \
                 size=%d annotations=%d emergency=%d injected=%d\n"
                (Harness.Build.config_name config)
                machine.Machine.Machdesc.md_name r.Harness.Measure.o_instrs
                r.Harness.Measure.o_cycles r.Harness.Measure.o_gc_count
                r.Harness.Measure.o_size b.Harness.Build.b_keep_lives
                r.Harness.Measure.o_emergency
                r.Harness.Measure.o_injected_failures
        | o ->
            finish_telemetry ();
            summary (classify_run o);
            exit_with o)
  in
  let doc = "build a configuration and execute it on the VM" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ config_arg $ machine_arg $ analysis_arg $ gc_mode_arg
      $ gc_threshold_arg $ gc_pause_budget_arg $ gc_schedule_arg
      $ integrity_arg $ max_instrs_arg $ max_heap_arg $ heap_limit_arg
      $ oom_policy_arg $ alloc_fail_arg $ stats_arg $ trace_arg $ metrics_arg
      $ no_cache_arg $ source_term)

(* --- ir --------------------------------------------------------------------- *)

let ir_cmd =
  let run config machine analysis source =
    handle_errors (fun () ->
        let _, src = source () in
        let req = Harness.Request.make ~config ~machine ~analysis src in
        let b = build req in
        List.iter
          (fun f -> Format.printf "%a@." Ir.Instr.pp_func f)
          b.Harness.Build.b_ir.Ir.Instr.p_funcs)
  in
  let doc = "dump the optimized, register-allocated IR" in
  Cmd.v
    (Cmd.info "ir" ~doc)
    Term.(const run $ config_arg $ machine_arg $ analysis_arg $ source_term)

(* --- stress ------------------------------------------------------------------ *)

let stress_cmd =
  let targets_arg =
    let doc =
      "Stress targets: 'examples', 'workloads', 'all', a corpus or workload \
       name (hazard, indexfold, strcopy, interior, churn, cordtest, cfrac, \
       gawk, gs), or a path to a C source file."
    in
    Arg.(value & pos_all string [ "examples" ] & info [] ~docv:"TARGET" ~doc)
  in
  let machines_arg =
    let doc =
      "Restrict to one machine model (sparc2, sparc10, pentium90); \
       repeatable.  Default: all three."
    in
    Arg.(value & opt_all machine_conv [] & info [ "machine" ] ~docv:"MACHINE" ~doc)
  in
  let every_arg =
    let doc = "Use an every-N schedule (repeatable) instead of automatic mode \
               selection." in
    Arg.(value & opt_all int [] & info [ "every" ] ~docv:"N" ~doc)
  in
  let at_allocs_arg =
    let doc = "Add the collect-at-every-allocation schedule." in
    Arg.(value & flag & info [ "at-allocs" ] ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Explore every single-collection-point schedule (up to --cap points), \
       regardless of program size."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let cap_arg =
    let doc =
      "Ceiling on exhaustive exploration: programs whose baseline executes \
       more instructions fall back to sampled schedules."
    in
    Arg.(value & opt int 2000 & info [ "cap" ] ~docv:"N" ~doc)
  in
  let analyses_arg =
    let doc =
      "Analysis variants of the preprocessed configurations: 'flow' (the \
       default), 'none', or 'both' to cross-check analysis-pruned builds \
       against fully-annotated ones under every schedule."
    in
    Arg.(
      value
      & opt analyses_conv [ Gcsafe.Mode.A_flow ]
      & info [ "analysis" ] ~docv:"ANALYSIS" ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Replay every finding's failing schedule under a span tracer plus a \
       flight recorder and write the Chrome traces and flight-recorder \
       dumps into $(docv) (created on demand).  With --chaos, findings' \
       injected runs are replayed under the flight recorder alone."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let gc_modes_arg =
    let doc =
      "Collector modes in the matrix: 'stw' (the default), 'gen', 'inc', \
       'both' (stw+gen) or 'all' (stw+gen+inc) to cross-check the \
       barrier-based collectors against the paper's stop-the-world \
       collector under every schedule."
    in
    let aliases =
      Gcheap.Heap.[ ("both", [ Stw; Gen ]); ("all", [ Stw; Gen; Inc ]) ]
    in
    Arg.(
      value
      & opt (list_conv ~aliases gc_mode_conv) [ Gcheap.Heap.Stw ]
      & info [ "gc-mode" ] ~docv:"MODE" ~doc)
  in
  let chaos_arg =
    let doc =
      "Run the chaos sweeps instead of the schedule sweep: injected \
       allocation failures (with burst shrinking and trap-policy probes), \
       injected worker crashes under the supervised pool, and cache \
       corruption.  Any injected fault must either recover to the \
       fault-free behaviour or stop with a structured diagnostic."
    in
    Arg.(value & flag & info [ "chaos" ] ~doc)
  in
  let chaos_seed_arg =
    let doc =
      "Seed for the chaos sweeps' ordinal sampling and fault placement \
       (printed with every failing report, for exact replay)."
    in
    Arg.(value & opt int 0 & info [ "chaos-seed" ] ~docv:"N" ~doc)
  in
  let chaos_points_arg =
    let doc = "Allocation ordinals swept per subject in --chaos mode." in
    Arg.(value & opt int 64 & info [ "chaos-points" ] ~docv:"N" ~doc)
  in
  let run machines analyses gc_modes every at_allocs exhaustive cap max_instrs
      max_heap trace_dir chaos chaos_seed chaos_points jobs no_cache targets =
    handle_errors (fun () ->
        apply_cache_flag no_cache;
        let resolved =
          List.concat_map
            (fun spec ->
              match Stress.Corpus.resolve spec with
              | Some ts -> ts
              | None ->
                  Printf.eprintf "unknown stress target: %s\n" spec;
                  exit 2)
            targets
        in
        (* one matrix from the flags, over the chosen sweep's defaults *)
        let defaults =
          if chaos then Stress.Chaos.default_plan.Stress.Chaos.c_matrix
          else Stress.Driver.default_plan.Stress.Driver.p_matrix
        in
        let matrix =
          {
            defaults with
            Harness.Request.m_machines =
              (if machines = [] then defaults.Harness.Request.m_machines
               else machines);
            Harness.Request.m_analyses = analyses;
            Harness.Request.m_gc_modes = gc_modes;
            Harness.Request.m_max_instrs = max_instrs;
            Harness.Request.m_max_heap = max_heap;
          }
        in
        if chaos then begin
          let plan =
            {
              Stress.Chaos.default_plan with
              Stress.Chaos.c_matrix = matrix;
              Stress.Chaos.c_seed = chaos_seed;
              Stress.Chaos.c_max_points = chaos_points;
              Stress.Chaos.c_jobs = jobs;
              Stress.Chaos.c_flight_dir = trace_dir;
            }
          in
          let report = Stress.Chaos.run ~plan resolved in
          Format.printf "%a@." Stress.Chaos.pp_report report;
          if Stress.Chaos.unexpected report <> [] then
            exit (Harness.Diagnostics.exit_code Harness.Diagnostics.Divergence)
        end
        else
        let modes =
          let m =
            (if exhaustive then [ Stress.Driver.Exhaustive cap ] else [])
            @ (if every <> [] then [ Stress.Driver.Every_n every ] else [])
            @ if at_allocs then [ Stress.Driver.Alloc_points ] else []
          in
          if m = [] then None else Some m
        in
        let plan =
          {
            Stress.Driver.p_matrix = matrix;
            Stress.Driver.p_modes = modes;
            Stress.Driver.p_exhaustive_cap = cap;
            Stress.Driver.p_jobs = jobs;
            Stress.Driver.p_trace_dir = trace_dir;
          }
        in
        let report = Stress.Driver.run ~plan resolved in
        Format.printf "%a@." Stress.Driver.pp_report report;
        if Stress.Driver.unexpected report <> [] then
          exit
            (Harness.Diagnostics.exit_code Harness.Diagnostics.Divergence))
  in
  let doc =
    "run the fault-injected differential stress harness over the build matrix"
  in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      const run $ machines_arg $ analyses_arg $ gc_modes_arg $ every_arg
      $ at_allocs_arg $ exhaustive_arg $ cap_arg $ max_instrs_arg
      $ max_heap_arg $ trace_dir_arg $ chaos_arg $ chaos_seed_arg
      $ chaos_points_arg $ jobs_arg $ no_cache_arg $ targets_arg)

(* --- profile ----------------------------------------------------------------- *)

let profile_cmd =
  let analyses_arg =
    let doc =
      "Analyses to profile: 'none', 'flow', or 'both' (the default) to \
       print a profile per variant — drag differences between the two are \
       what the pruned KEEP_LIVE annotations cost or save in retained \
       garbage."
    in
    Arg.(
      value
      & opt analyses_conv both_analyses
      & info [ "analysis" ] ~docv:"ANALYSIS" ~doc)
  in
  let run config machine analyses gc_mode json gc_threshold max_instrs max_heap
      no_cache source =
    handle_errors (fun () ->
        apply_cache_flag no_cache;
        let source_name, src = source () in
        (* a small threshold reclaims garbage promptly, so drag measures
           retention rather than collector laziness *)
        let threshold = Option.value gc_threshold ~default:2048 in
        (* per-function KEEP_LIVE survivors, for the annotation column of
           the drag table (preprocessed configurations only) *)
        let keep_lives_by_func analysis =
          match config with
          | Harness.Build.Base | Harness.Build.Debug -> fun _ -> 0
          | Harness.Build.Safe | Harness.Build.Safe_peephole
          | Harness.Build.Debug_checked ->
              let mode =
                if config = Harness.Build.Debug_checked then
                  Gcsafe.Mode.Checked
                else Gcsafe.Mode.Safe
              in
              let opts =
                { (Gcsafe.Mode.default mode) with Gcsafe.Mode.analysis }
              in
              let ast = Csyntax.Parser.parse_program src in
              let r = Gcsafe.Annotate.run ~opts ast in
              let tbl = Hashtbl.create 16 in
              List.iter
                (fun (f, n) -> Hashtbl.replace tbl f n)
                r.Gcsafe.Annotate.stats.Gcsafe.Annotate.st_by_func;
              fun f -> Option.value ~default:0 (Hashtbl.find_opt tbl f)
        in
        let profile_one analysis =
          let req =
            Harness.Request.make ~config ~machine ~analysis ~gc_mode
              ~final_collect:true ~gc_threshold:threshold ?max_instrs
              ?max_heap src
          in
          let b = build req in
          let profiler = Telemetry.Heap_profiler.create () in
          let telemetry = Some (Telemetry.Sink.make ~profiler ()) in
          (match Harness.Measure.exec ?telemetry req b with
          | Harness.Measure.Ran _ -> ()
          | o -> exit_with o);
          (analysis, Telemetry.Heap_profiler.report profiler)
        in
        let profiles = List.map profile_one analyses in
        if json then
          let doc =
            Telemetry.Json.Obj
              [
                ("file", Telemetry.Json.Str source_name);
                ("config", Telemetry.Json.Str (Harness.Build.config_name config));
                ( "machine",
                  Telemetry.Json.Str machine.Machine.Machdesc.md_name );
                ("gc_threshold", Telemetry.Json.Int threshold);
                ( "gc_mode",
                  Telemetry.Json.Str (Gcheap.Heap.gc_mode_name gc_mode) );
                ( "profiles",
                  Telemetry.Json.List
                    (List.map
                       (fun (analysis, report) ->
                         Telemetry.Json.Obj
                           [
                             ( "analysis",
                               Telemetry.Json.Str
                                 (Gcsafe.Mode.analysis_to_string analysis) );
                             ( "profile",
                               Telemetry.Heap_profiler.to_json report );
                           ])
                       profiles) );
              ]
          in
          print_endline (Telemetry.Json.to_string doc)
        else
          List.iter
            (fun (analysis, report) ->
              Format.printf "== %s  (%s, %s, analysis=%s) ==@.%a@."
                source_name
                (Harness.Build.config_name config)
                machine.Machine.Machdesc.md_name
                (Gcsafe.Mode.analysis_to_string analysis)
                (Telemetry.Heap_profiler.pp_table
                   ~annotated:(keep_lives_by_func analysis))
                report)
            profiles)
  in
  let doc =
    "profile heap allocation sites: peak-live bytes and reclamation drag, \
     per analysis variant"
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run $ config_arg $ machine_arg $ analyses_arg $ gc_mode_arg
      $ json_flag_arg $ gc_threshold_arg $ max_instrs_arg $ max_heap_arg
      $ no_cache_arg $ source_term)

(* --- trace-check ------------------------------------------------------------- *)

let trace_check_cmd =
  let run file =
    handle_errors (fun () ->
        let text = read_input file in
        match Telemetry.Json.parse text with
        | Error e ->
            Printf.eprintf "%s: JSON parse error: %s\n" file e;
            exit 2
        | Ok doc ->
            if Telemetry.Flight_recorder.is_dump doc then (
              match Telemetry.Flight_recorder.check doc with
              | Ok () ->
                  Printf.printf "%s: valid flight-recorder dump\n" file
              | Error e ->
                  Printf.eprintf "%s: invalid flight-recorder dump: %s\n" file
                    e;
                  exit 1)
            else (
              match Telemetry.Trace.check doc with
              | Ok () -> Printf.printf "%s: valid trace\n" file
              | Error e ->
                  Printf.eprintf "%s: invalid trace: %s\n" file e;
                  exit 1))
  in
  let doc =
    "validate a Chrome trace-event JSON file or a flight-recorder dump \
     (structure, span nesting, ring coherence)"
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file_arg)

(* --- heap-census ------------------------------------------------------------- *)

let heap_census_cmd =
  let run config machine analysis gc_mode gc_threshold gc_pause_budget
      heap_limit oom_policy json no_cache source =
    handle_errors (fun () ->
        apply_cache_flag no_cache;
        let source_name, src = source () in
        let req =
          Harness.Request.make ~config ~machine ~analysis ~gc_mode
            ~final_collect:true ?gc_threshold ?gc_pause_budget ~heap_limit
            ~oom_policy src
        in
        let b = build req in
        match Harness.Measure.exec ~census:true req b with
        | Harness.Measure.Ran r ->
            let censuses = r.Harness.Measure.o_census in
            if json then
              print_endline
                (Telemetry.Json.to_string
                   (Telemetry.Json.Obj
                      [
                        ("file", Telemetry.Json.Str source_name);
                        ( "config",
                          Telemetry.Json.Str (Harness.Build.config_name config)
                        );
                        ( "machine",
                          Telemetry.Json.Str machine.Machine.Machdesc.md_name
                        );
                        ( "gc_mode",
                          Telemetry.Json.Str (Gcheap.Heap.gc_mode_name gc_mode)
                        );
                        ("collections", Telemetry.Json.Int (List.length censuses));
                        ( "censuses",
                          Telemetry.Json.List
                            (List.map Harness.Measure.census_to_json censuses)
                        );
                      ]))
            else if censuses = [] then
              print_endline "no collections ran, so no census was sampled"
            else
              List.iter
                (fun c -> Format.printf "%a@." Gcheap.Census.pp c)
                censuses
        | o -> exit_with o)
  in
  let doc =
    "run a program and print the per-collection heap census: size-class \
     occupancy, free-page pool, age histogram, card-table dirty ratio and \
     fragmentation"
  in
  Cmd.v
    (Cmd.info "heap-census" ~doc)
    Term.(
      const run $ config_arg $ machine_arg $ analysis_arg $ gc_mode_arg
      $ gc_threshold_arg $ gc_pause_budget_arg $ heap_limit_arg
      $ oom_policy_arg $ json_flag_arg $ no_cache_arg $ source_term)

(* --- tables ------------------------------------------------------------------ *)

let tables_cmd =
  let run machine jobs no_cache =
    handle_errors (fun () ->
        apply_cache_flag no_cache;
        Exec.Pool.with_pool ~jobs (fun pool ->
            ignore (Harness.Tables.slowdown_table ~machine ~pool ());
            print_newline ();
            ignore (Harness.Tables.size_table ~machine ~pool ());
            print_newline ();
            ignore (Harness.Tables.postprocessor_table ~machine ~pool ());
            print_newline ();
            ignore (Harness.Tables.analysis_table ~machine ~pool ());
            print_newline ();
            Harness.Tables.ablation_table ~machine ~pool ()))
  in
  let doc =
    "regenerate the paper's tables, the analysis ablation and the \
     ablations of the paper's optimizations for one machine model"
  in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(const run $ machine_arg $ jobs_arg $ no_cache_arg)

(* --- serve ------------------------------------------------------------------- *)

let servers_arg =
  let doc = "Virtual service lanes for admission control." in
  Arg.(
    value
    & opt int Service.Gcsafed.default_config.Service.Gcsafed.servers
    & info [ "servers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Bounded waiting-room capacity; requests arriving beyond it are shed \
     with a structured rejected-overload outcome."
  in
  Arg.(
    value
    & opt int Service.Gcsafed.default_config.Service.Gcsafed.queue_capacity
    & info [ "queue" ] ~docv:"N" ~doc)

let report_json_arg =
  let doc = "Write the full service report (JSON) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let events_arg =
  let doc =
    "Stream observability JSON lines to $(docv) ('-' for standard error): \
     flight-recorder events interleaved with windowed metric snapshots \
     (counter deltas, gauges, histogram deltas with percentiles, SLO \
     burn rate) on the virtual clock.  Deterministic across --jobs."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let window_arg =
  let doc = "Virtual ticks per --events metrics window." in
  Arg.(
    value
    & opt int Telemetry.Stream.default_window
    & info [ "window" ] ~docv:"TICKS" ~doc)

let flight_dump_arg =
  let doc =
    "Write the service flight-recorder dump (the last-N structured events, \
     validated by trace-check) to $(docv).  Without this flag a dump is \
     still written to gcsafed-flight.json whenever the run ends with \
     unexpected outcomes."
  in
  Arg.(
    value & opt (some string) None & info [ "flight-dump" ] ~docv:"FILE" ~doc)

(* The emitter writes one JSON value per line; the channel stays open for
   the service's whole lifetime (windows flush on shutdown). *)
let with_events_emitter events f =
  match events with
  | None -> f None
  | Some "-" ->
      f (Some (fun json -> prerr_endline (Telemetry.Json.to_string json)))
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          f
            (Some
               (fun json ->
                 Telemetry.Json.to_channel oc json;
                 output_char oc '\n')))

(* Dump-on-anomaly: an unexpected outcome always ships with its flight
   recorder — to the named file when --flight-dump was given, to a
   default path (announced on stderr) otherwise. *)
let write_flight_dump t ~flight_dump ~unexpected =
  match flight_dump with
  | Some path ->
      Telemetry.Flight_recorder.write_file (Service.Gcsafed.recorder t) path
  | None ->
      if unexpected > 0 then begin
        let path = "gcsafed-flight.json" in
        Telemetry.Flight_recorder.write_file (Service.Gcsafed.recorder t)
          path;
        Printf.eprintf
          "gcsafec: %d unexpected outcome(s); flight-recorder dump written \
           to %s\n"
          unexpected path
      end

(* The gcsafed session serve and bomb share: submit the requests (each at
   its arrival tick, if it has one), drain, [print] the outcomes and the
   report, write the JSON report and the flight dump, and exit nonzero on
   unexpected outcomes.  Every build runs through a request, so
   [mark_no_cache] is all --no-cache needs. *)
let session_term =
  let session servers queue jobs no_cache json_out events window flight_dump
      reqs print =
    let t0 = Unix.gettimeofday () in
    with_events_emitter events (fun emit ->
        Exec.Pool.with_pool ~jobs (fun pool ->
            let t =
              Service.Gcsafed.create ~pool ?events:emit ~window
                {
                  Service.Gcsafed.default_config with
                  Service.Gcsafed.servers;
                  Service.Gcsafed.queue_capacity = queue;
                }
            in
            List.iter
              (fun (arrival, req) ->
                Service.Gcsafed.submit ?arrival t (mark_no_cache no_cache req))
              reqs;
            Service.Gcsafed.shutdown t;
            let wall_s = Unix.gettimeofday () -. t0 in
            let report = Service.Gcsafed.report t in
            print t report ~wall_s;
            Option.iter
              (fun path ->
                Out_channel.with_open_text path (fun oc ->
                    Telemetry.Json.to_channel oc
                      (Service.Gcsafed.report_to_json ~wall_s t);
                    output_char oc '\n'))
              json_out;
            write_flight_dump t ~flight_dump
              ~unexpected:report.Service.Gcsafed.rp_unexpected;
            if report.Service.Gcsafed.rp_unexpected > 0 then
              exit
                (Harness.Diagnostics.exit_code
                   Harness.Diagnostics.Internal_error)))
  in
  Term.(
    const session $ servers_arg $ queue_arg $ jobs_arg $ no_cache_arg
    $ report_json_arg $ events_arg $ window_arg $ flight_dump_arg)

let serve_cmd =
  (* resolve {"workload": NAME} / {"example": NAME} source shorthands
     before deserializing — the wire format proper only knows "source" *)
  let resolve_source json =
    match json with
    | Telemetry.Json.Obj fields when not (List.mem_assoc "source" fields) -> (
        match
          (List.assoc_opt "workload" fields, List.assoc_opt "example" fields)
        with
        | Some (Telemetry.Json.Str w), _ -> (
            match Workloads.Registry.by_name w with
            | Some wl ->
                Ok
                  (Telemetry.Json.Obj
                     (("source", Telemetry.Json.Str wl.Workloads.Registry.w_source)
                     :: fields))
            | None -> Error (Printf.sprintf "unknown workload %S" w))
        | _, Some (Telemetry.Json.Str e) -> (
            match Stress.Corpus.by_name e with
            | Some t ->
                Ok
                  (Telemetry.Json.Obj
                     (("source", Telemetry.Json.Str t.Stress.Corpus.t_source)
                     :: fields))
            | None -> Error (Printf.sprintf "unknown example %S" e))
        | _ -> Ok json)
    | _ -> Ok json
  in
  let parse_line line =
    match Telemetry.Json.parse line with
    | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
    | Ok json -> (
        match resolve_source json with
        | Error e -> Error e
        | Ok json -> (
            match Harness.Request.of_json json with
            | Error e -> Error e
            | Ok req ->
                let arrival =
                  match Telemetry.Json.member "arrival" json with
                  | Some (Telemetry.Json.Int a) -> Some a
                  | _ -> None
                in
                Ok (arrival, req)))
  in
  let run session =
    handle_errors (fun () ->
        (* read the whole stream first: admission is a function of the
           traffic, and malformed lines must still yield one outcome
           line each, in input order *)
        let lines = In_channel.input_lines In_channel.stdin in
        let items =
          List.filter_map
            (fun line ->
              if String.trim line = "" then None
              else Some (parse_line line))
            lines
        in
        session
          (List.filter_map Result.to_option items)
          (fun t report ~wall_s:_ ->
            (* one outcome line per input line, in input order *)
            let completions = ref (Service.Gcsafed.completions t) in
            List.iter
              (fun item ->
                let outcome =
                  match item with
                  | Error e -> Harness.Outcome.Source_error e
                  | Ok _ -> (
                      match !completions with
                      | c :: rest ->
                          completions := rest;
                          c.Service.Gcsafed.r_outcome
                      | [] -> Harness.Outcome.Internal "missing completion")
                in
                print_endline
                  (Telemetry.Json.to_string (Harness.Outcome.to_json outcome)))
              items;
            Format.eprintf "%a@." Service.Gcsafed.pp_report report))
  in
  let doc =
    "run the service harness over a stream of JSON requests (one object per \
     line on standard input; 'source' may be replaced by 'workload' or \
     'example'); prints one outcome object per request on standard output \
     and the service report on standard error"
  in
  Cmd.v
    (Cmd.info "serve" ~doc) Term.(const run $ session_term)

(* --- bomb -------------------------------------------------------------------- *)

let bomb_cmd =
  let requests_arg =
    let doc = "Number of requests to generate." in
    Arg.(
      value
      & opt int Service.Trafficgen.default_spec.Service.Trafficgen.g_requests
      & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let mix_arg =
    let doc = "Traffic mix: all, generated, examples or workloads." in
    Arg.(
      value
      & opt
          (knob_conv ~err:"unknown mix" Service.Trafficgen.mix_of_string
             Service.Trafficgen.mix_name)
          Service.Trafficgen.All
      & info [ "mix" ] ~docv:"MIX" ~doc)
  in
  let seed_arg =
    let doc = "Traffic generator seed (runs are replayable by seed)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let interarrival_arg =
    let doc = "Mean virtual-tick gap between arrivals (open loop)." in
    Arg.(
      value
      & opt int Service.Trafficgen.default_spec.Service.Trafficgen.g_mean_gap
      & info [ "interarrival" ] ~docv:"TICKS" ~doc)
  in
  let chaos_arg =
    let doc =
      "Percentage of requests perturbed with heap ceilings, trap policies \
       or injected allocation failures."
    in
    Arg.(
      value
      & opt int
          Service.Trafficgen.default_spec.Service.Trafficgen.g_chaos_percent
      & info [ "chaos" ] ~docv:"PCT" ~doc)
  in
  let run requests mix seed interarrival chaos session =
    handle_errors (fun () ->
        let spec =
          {
            Service.Trafficgen.g_requests = requests;
            g_seed = seed;
            g_mix = mix;
            g_mean_gap = max 1 interarrival;
            g_chaos_percent = max 0 (min 100 chaos);
          }
        in
        session
          (List.map
             (fun (arrival, req) -> (Some arrival, req))
             (Service.Trafficgen.generate spec))
          (fun _ report ~wall_s ->
            Format.printf "%a@." Service.Gcsafed.pp_report report;
            Printf.eprintf "wall: %.2fs, %.1f requests/s\n" wall_s
              (if wall_s > 0. then float_of_int requests /. wall_s else 0.)))
  in
  let doc =
    "generate an open-loop request bombardment and report steady-state \
     throughput, cache hit rate, outcome counts and latency percentiles \
     (deterministic: the report is byte-identical across --jobs)"
  in
  Cmd.v
    (Cmd.info "bomb" ~doc)
    Term.(
      const run $ requests_arg $ mix_arg $ seed_arg $ interarrival_arg
      $ chaos_arg $ session_term)

let () =
  let doc = "GC-safety preprocessor for C (Boehm, PLDI 1996)" in
  let info = Cmd.info "gcsafec" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            annotate_cmd;
            check_cmd;
            run_cmd;
            ir_cmd;
            tables_cmd;
            stress_cmd;
            profile_cmd;
            trace_check_cmd;
            heap_census_cmd;
            serve_cmd;
            bomb_cmd;
          ]))
