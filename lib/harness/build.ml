(** Build configurations: source -> annotated AST -> IR -> optimized,
    register-allocated machine code.

    These mirror the paper's measured builds:
    - [Base]: "-O", the unpreprocessed optimized baseline;
    - [Safe]: "-O, safe", preprocessed for GC-safety then optimized;
    - [Safe_peephole]: [Safe] plus the assembly-level postprocessor;
    - [Debug]: "-g", fully debuggable code, unpreprocessed ("and hence
      probably guaranteed safe");
    - [Debug_checked]: "-g, checked", preprocessed to insert pointer
      arithmetic checks and compiled debuggable. *)

type config = Base | Safe | Safe_peephole | Debug | Debug_checked

let config_name = function
  | Base -> "-O"
  | Safe -> "-O, safe"
  | Safe_peephole -> "-O, safe+peep"
  | Debug -> "-g"
  | Debug_checked -> "-g, checked"

let all_configs = [ Base; Safe; Safe_peephole; Debug; Debug_checked ]

(* the CLI spellings; [config_name] renders the paper's names *)
let config_of_string = function
  | "base" -> Some Base
  | "safe" -> Some Safe
  | "safe-peep" -> Some Safe_peephole
  | "debug" | "g" -> Some Debug
  | "checked" -> Some Debug_checked
  | _ -> None

let config_id = function
  | Base -> "base"
  | Safe -> "safe"
  | Safe_peephole -> "safe-peep"
  | Debug -> "debug"
  | Debug_checked -> "checked"

let preprocessed = function
  | Safe | Safe_peephole | Debug_checked -> true
  | Base | Debug -> false

type built = {
  b_config : config;
  b_ir : Ir.Instr.program;
  b_keep_lives : int;  (** annotations inserted (0 for unpreprocessed) *)
  b_size : int;  (** static size in instructions *)
}

(** Build options: everything besides the configuration and the source
    that affects the produced code, plus [use_cache], which steers the
    lookup.  One record, so call sites stay stable as inputs are added
    and the artifact cache can key on it. *)
type options = {
  nregs : int;
  loop_heuristic : bool;
  use_cache : bool;
  analysis : Gcsafe.Mode.analysis;
}

let default =
  {
    nregs = 32;
    loop_heuristic = false;
    use_cache = true;
    analysis = Gcsafe.Mode.A_flow;
  }

let for_machine (m : Machine.Machdesc.t) =
  { default with nregs = m.Machine.Machdesc.md_regs }

(** Annotate (when the configuration calls for it), compile, optimize and
    register-allocate [source] for [options.nregs] machine registers.

    [loop_heuristic] defaults to off, matching the paper's implementation
    ("Only optimizations (1) and (2) from above are implemented"); the
    ablation bench measures what turning it on does. *)
let compile_uncached (options : options) (config : config) (source : string) :
    built =
  let loop_heuristic = options.loop_heuristic and nregs = options.nregs in
  let ast = Csyntax.Parser.parse_program source in
  let annotated, keep_lives =
    match config with
    | Base | Debug ->
        ignore (Csyntax.Typecheck.check_program ast);
        (ast, 0)
    | Safe | Safe_peephole ->
        let opts =
          {
            (Gcsafe.Mode.default Gcsafe.Mode.Safe) with
            Gcsafe.Mode.analysis = options.analysis;
          }
        in
        let r = Gcsafe.Annotate.run ~opts ast in
        let p =
          if loop_heuristic then Gcsafe.Loop_heuristic.apply r.Gcsafe.Annotate.program
          else r.Gcsafe.Annotate.program
        in
        (p, r.Gcsafe.Annotate.keep_live_count)
    | Debug_checked ->
        let opts =
          {
            (Gcsafe.Mode.default Gcsafe.Mode.Checked) with
            Gcsafe.Mode.analysis = options.analysis;
          }
        in
        let r = Gcsafe.Annotate.run ~opts ast in
        (r.Gcsafe.Annotate.program, r.Gcsafe.Annotate.keep_live_count)
  in
  let cmode =
    match config with
    | Base | Safe | Safe_peephole -> Ir.Compile.opt_mode
    | Debug | Debug_checked -> Ir.Compile.debug_mode
  in
  let irp = Ir.Compile.compile_program ~mode:cmode annotated in
  let ocfg =
    {
      Opt.Pipeline.default with
      Opt.Pipeline.optimize =
        (match config with
        | Base | Safe | Safe_peephole -> true
        | Debug | Debug_checked -> false);
      Opt.Pipeline.nregs = nregs;
    }
  in
  ignore (Opt.Pipeline.run_program ocfg irp);
  (match config with
  | Safe_peephole -> ignore (Peephole.Postprocess.run irp)
  | Base | Safe | Debug | Debug_checked -> ());
  {
    b_config = config;
    b_ir = irp;
    b_keep_lives = keep_lives;
    b_size = Ir.Instr.program_size irp;
  }

(* ------------------------------------------------------------------ *)
(* The artifact cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Process-wide and content-addressed: identical (source, config,
   options) triples compile once per process no matter how many
   consumers — tables, differ, stress, bench — ask, serially or from
   worker domains.

   Artifacts are fingerprinted by a structural digest: the IR is only
   mutated during compilation, never by the VM, so the digest is stable
   for a healthy artifact and any in-place corruption is caught on the
   next hit and rebuilt instead of served. *)
let fingerprint (b : built) : string =
  Digest.to_hex
    (Digest.string (Marshal.to_string (b.b_ir, b.b_keep_lives, b.b_size) []))

let cache : built Exec.Cache.t = Exec.Cache.create ~fingerprint ()

let enabled = Atomic.make true

let set_cache_enabled b = Atomic.set enabled b

let cache_stats () = Exec.Cache.stats cache

let reset_cache () =
  Exec.Cache.clear cache;
  Exec.Cache.reset_stats cache

(* The config name and the option fields are ':'-separated in front of a
   fixed-width source digest, and none of them can contain ':', so the
   key is injective in every input that affects the produced code.
   [use_cache] steers the lookup, not the artifact, and is excluded; so
   is every run-time knob (the collector mode among them), which is why
   one artifact serves every run of the same code. *)
let cache_key (options : options) (config : config) (source : string) : string
    =
  Printf.sprintf "%s:%d:%b:%s:%s" (config_name config) options.nregs
    options.loop_heuristic
    (Gcsafe.Mode.analysis_to_string options.analysis)
    (Digest.to_hex (Digest.string source))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* A session is a baseline snapshot of the process-wide counters; its
   stats are the componentwise delta, so back-to-back consumers (bench
   sections, CLI invocations) observe only their own traffic. *)
type session = { s_base : Exec.Cache.stats }

let new_session () = { s_base = Exec.Cache.stats cache }

let session_stats (s : session) : Exec.Cache.stats =
  let now = Exec.Cache.stats cache in
  {
    Exec.Cache.hits = now.Exec.Cache.hits - s.s_base.Exec.Cache.hits;
    misses = now.Exec.Cache.misses - s.s_base.Exec.Cache.misses;
    corruptions = now.Exec.Cache.corruptions - s.s_base.Exec.Cache.corruptions;
    entries = now.Exec.Cache.entries;
  }

(* Chaos hook: rot the cached artifact for (options, config, source) in
   place, without refreshing its fingerprint.  The next [compile] hit
   must detect the mismatch and rebuild rather than serve it. *)
let corrupt_cached ?(options = default) (config : config) (source : string) :
    bool =
  Exec.Cache.corrupt cache
    (cache_key options config source)
    (fun b -> { b with b_size = b.b_size + 1 })

let compile ?telemetry ?(options = default) (config : config)
    (source : string) : built =
  let m = Telemetry.Sink.metrics telemetry in
  let m = Telemetry.Metrics.scope m "build" in
  let do_compile () =
    Telemetry.Sink.span telemetry
      ~args:(fun () -> [ ("config", Telemetry.Json.Str (config_name config)) ])
      "build.compile"
      (fun () -> compile_uncached options config source)
  in
  if options.use_cache && Atomic.get enabled then begin
    let built, hit =
      Exec.Cache.find_or_build_outcome cache
        (cache_key options config source)
        do_compile
    in
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter m
         (if hit then "cache/hits" else "cache/misses"));
    built
  end
  else begin
    Telemetry.Metrics.incr (Telemetry.Metrics.counter m "cache/bypass");
    do_compile ()
  end
