(* Benchmark harness: regenerates every table in the paper's evaluation,
   the Analysis-section listing, the hazard demonstration, and the
   ablations; plus bechamel micro-benchmarks of the collector primitives.

   Usage:  main.exe [t1|t2|t3|t4|t5|cache|a1|hazard|ablate|ablate-analysis|
                     ablate-telemetry|profile|gcmodes|stress|micro|all]...
   With no arguments, everything except micro runs (micro does wall-clock
   timing and is opt-in so the default output stays deterministic).

   Every build goes through Build.for_machine, so the register pressure
   always matches the machine model the surrounding measurement claims,
   and through the content-addressed artifact cache — the cache section
   reports the hit rate the table regeneration achieved.

   Besides the human-readable stdout, a machine-readable summary of
   everything measured — per-section wall-clock timings, annotation
   counts, cache hit rates, GC pause and drag statistics, and the
   telemetry-overhead ablation — is written to BENCH_4.json.  The
   gcmodes section additionally writes BENCH_5.json: minor-vs-major
   pause percentiles and the stw/gen differential-divergence count. *)

(* --- the machine-readable summary (BENCH_4.json) ------------------------- *)

(* one-shot: build a request's configuration and execute it (telemetry
   observes the run only; builds stay uninstrumented, as before) *)
let exec_req ?telemetry (req : Harness.Request.t) =
  let b =
    Harness.Build.compile
      ~options:(Harness.Request.build_options req)
      req.Harness.Request.config req.Harness.Request.source
  in
  Harness.Measure.exec ?telemetry req b

let bench_data : (string * Telemetry.Json.t) list ref = ref []

let record key v = bench_data := (key, v) :: !bench_data

let section_timings : (string * float) list ref = ref []

let timed_section name f =
  let t0 = Unix.gettimeofday () in
  f ();
  section_timings := (name, Unix.gettimeofday () -. t0) :: !section_timings

let write_bench_json () =
  let open Telemetry.Json in
  let timings =
    Obj (List.rev_map (fun (n, s) -> (n, Float s)) !section_timings)
  in
  let doc = Obj (("section_seconds", timings) :: List.rev !bench_data) in
  Out_channel.with_open_text "BENCH_4.json" (fun oc ->
      Out_channel.output_string oc (to_string doc ^ "\n"));
  Printf.printf "wrote BENCH_4.json\n"

let paper_reference = function
  | "t1" ->
      [
        "paper (SPARCstation 2):";
        "              -O, safe      -g            -g, checked";
        "  cordtest    9%            54%           514%";
        "  cfrac       17%           <inlining>    <not operational>";
        "  gawk        8%            25%           <fails>";
        "  gs          0%            33%           205%";
      ]
  | "t2" ->
      [
        "paper (SPARCstation 10):";
        "              -O2, safe     -g            -g, checked";
        "  cordtest    9%            56%           529%";
        "  cfrac       8%            -             -";
        "  gawk        8%            48%           -";
        "  gs          5%            37%           366%";
      ]
  | "t3" ->
      [
        "paper (Pentium 90):";
        "              -O2, safe     -g            -g, checked";
        "  cordtest    12%           28%           510%";
        "  cfrac       11%           -             -";
        "  gawk        9%            41%           -";
        "  gs          6%            17%           279%";
      ]
  | "t4" ->
      [
        "paper (SPARC object code size):";
        "              -O2, safe     -g            -g, checked";
        "  cordtest    9%            69%           130%";
        "  cfrac       6%            -             -";
        "  gawk        15%           68%           -";
        "  gs          19%           73%           160%";
      ]
  | "t5" ->
      [
        "paper (SPARC 10, safe + peephole postprocessor):";
        "              running time  code size";
        "  cordtest    4%            3%";
        "  cfrac       2%            3%";
        "  gawk        1%            7%";
        "  gs          2%            7%";
      ]
  | _ -> []

let show_reference id =
  List.iter print_endline (paper_reference id);
  print_newline ()

let t1 () =
  print_endline "== T1: slowdowns, SPARCstation 2 model ==";
  ignore (Harness.Tables.slowdown_table ~machine:Machine.Machdesc.sparc2 ());
  show_reference "t1"

let t2 () =
  print_endline "== T2: slowdowns, SPARCstation 10 model ==";
  ignore (Harness.Tables.slowdown_table ~machine:Machine.Machdesc.sparc10 ());
  show_reference "t2"

let t3 () =
  print_endline "== T3: slowdowns, Pentium 90 model ==";
  ignore (Harness.Tables.slowdown_table ~machine:Machine.Machdesc.pentium90 ());
  show_reference "t3"

let t4 () =
  print_endline "== T4: object code size expansion ==";
  ignore (Harness.Tables.size_table ~machine:Machine.Machdesc.sparc10 ());
  show_reference "t4"

let t5 () =
  print_endline "== T5: peephole postprocessor residuals ==";
  ignore (Harness.Tables.postprocessor_table ~machine:Machine.Machdesc.sparc10 ());
  show_reference "t5"

(* --- the build cache over the table-regeneration section ---------------- *)

(* T1-T5 ask for the same (source, config, register-count) artifacts over
   and over: sparc2 and sparc10 share a register file so T2 compiles
   nothing new, T4's size rows reuse T2's builds, and T5 only adds the
   four safe+peephole artifacts.  Regenerating a table against a warm
   cache compiles nothing at all. *)
let cache_section () =
  print_endline "== Build cache: table regeneration ==";
  let pct s = 100.0 *. Exec.Cache.hit_rate s in
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let regen () =
    ignore
      (Harness.Tables.slowdown_table ~machine:Machine.Machdesc.sparc10
         ~out:null ())
  in
  (* sessions scope the process-wide counters to each pass, so the
     section reports its own traffic no matter which sections ran
     before it *)
  let cold_session = Harness.Build.new_session () in
  (* run standalone the cache is cold; prime it with one regeneration so
     the warm pass below measures steady-state regeneration *)
  if (Harness.Build.cache_stats ()).Exec.Cache.misses = 0 then regen ();
  let cold = Harness.Build.session_stats cold_session in
  Printf.printf
    "  cold start: %d hit(s), %d miss(es), %d evicted, %.0f%% hit rate\n"
    cold.Exec.Cache.hits cold.Exec.Cache.misses cold.Exec.Cache.evictions
    (pct cold);
  let warm_session = Harness.Build.new_session () in
  regen ();
  let warm = Harness.Build.session_stats warm_session in
  Printf.printf
    "  warm T2 regeneration: %d hit(s), %d miss(es), %.0f%% hit rate\n"
    warm.Exec.Cache.hits warm.Exec.Cache.misses (pct warm);
  let total = Harness.Build.cache_stats () in
  Printf.printf
    "  process total: %d hit(s), %d miss(es), %.0f%% hit rate\n"
    total.Exec.Cache.hits total.Exec.Cache.misses (pct total);
  let stats_json (s : Exec.Cache.stats) =
    Telemetry.Json.Obj
      [
        ("hits", Telemetry.Json.Int s.Exec.Cache.hits);
        ("misses", Telemetry.Json.Int s.Exec.Cache.misses);
        ("evictions", Telemetry.Json.Int s.Exec.Cache.evictions);
        ("hit_rate", Telemetry.Json.Float (Exec.Cache.hit_rate s));
      ]
  in
  record "cache"
    (Telemetry.Json.Obj
       [
         ("cold", stats_json cold);
         ("warm_regeneration", stats_json warm);
         ("process_total", stats_json total);
       ]);
  print_newline ()

(* --- A1: the Analysis-section listing ---------------------------------- *)

let a1 () =
  print_endline
    "== A1: the Analysis listing: char f(char *x) { return x[1]; } ==";
  let src = "char f(char *x) { return x[1]; } int main(void) { return 0; }" in
  let show title config =
    let b =
      Harness.Build.compile
        ~options:(Harness.Build.for_machine Machine.Machdesc.sparc10)
        config src
    in
    let f =
      List.find
        (fun f -> f.Ir.Instr.fn_name = "f")
        b.Harness.Build.b_ir.Ir.Instr.p_funcs
    in
    Printf.printf "--- %s (%d instructions)\n" title (Ir.Instr.code_size f);
    Format.printf "%a@." Ir.Instr.pp_func f
  in
  show "-O baseline" Harness.Build.Base;
  show "-O safe (KEEP_LIVE blocks the index fold)" Harness.Build.Safe;
  show "-O safe + peephole (pattern 1 re-fuses it)" Harness.Build.Safe_peephole;
  print_endline
    "paper: safe adds one add + empty asm before the ldsb; the\n\
     postprocessor folds the add back into the load's address mode.\n"

(* --- the hazard demonstration ------------------------------------------ *)

let hazard () =
  print_endline "== Hazard: the introduction's p[i-1000] example ==";
  let src =
    {|long f(long i) {
  char *p = (char *)malloc(10);
  p[5] = 42;
  return p[i - 100000];
}
int main(void) { printf("v=%ld\n", f(100005)); return 0; }|}
  in
  let run name config =
    match
      exec_req
        (Harness.Request.make ~config ~schedule:(Machine.Schedule.Every 1) src)
    with
    | Harness.Measure.Ran r ->
        Printf.printf "  %-26s OK: %s" name r.Harness.Measure.o_output
    | Harness.Measure.Detected m ->
        Printf.printf "  %-26s LOST OBJECT: %s\n" name m
    | o -> Printf.printf "  %-26s FAILED: %s\n" name (Harness.Measure.describe o)
  in
  run "-O (conventional)" Harness.Build.Base;
  run "-O safe (KEEP_LIVE)" Harness.Build.Safe;
  run "-O safe + peephole" Harness.Build.Safe_peephole;
  run "-g (fully debuggable)" Harness.Build.Debug;
  Printf.printf
    "  (collections forced at every instruction; the conventional optimizer\n\
    \   rewrites the final use into p -= 100000; ...p[i], and the object \
     dies)\n\n"

(* --- ablations ----------------------------------------------------------- *)

let count_keep_lives ~suppress_copies ~expand_incr src =
  let ast = Csyntax.Parser.parse_program src in
  let opts =
    {
      (Gcsafe.Mode.default Gcsafe.Mode.Safe) with
      Gcsafe.Mode.suppress_copies;
      Gcsafe.Mode.expand_incr;
    }
  in
  (Gcsafe.Annotate.run ~opts ast).Gcsafe.Annotate.keep_live_count

let cycles_of = function
  | Harness.Measure.Ran r -> r.Harness.Measure.o_cycles
  | o -> failwith (Harness.Measure.describe o)

let ablate () =
  print_endline "== Ablations: the paper's optimizations (1)-(3) ==";
  print_endline "-- optimization (1): suppress KEEP_LIVE on copies";
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let with1 = count_keep_lives ~suppress_copies:true ~expand_incr:true src in
      let without1 =
        count_keep_lives ~suppress_copies:false ~expand_incr:true src
      in
      Printf.printf "  %-10s %4d annotations with, %4d without (%d saved)\n"
        w.Workloads.Registry.w_name with1 without1 (without1 - with1))
    Workloads.Registry.paper_suite;
  print_endline "-- optimization (3): slowly-varying base pointers";
  let loop_src =
    {|void copy(char *s, char *t) {
  char *p; char *q;
  p = s; q = t;
  while (*p++ = *q++) ;
}
char buf[4096];
char src_buf[4096];
int main(void) {
  int i; int rep;
  for (i = 0; i < 4095; i++) src_buf[i] = 'a' + i % 26;
  src_buf[4095] = 0;
  for (rep = 0; rep < 60; rep++) copy(buf, src_buf);
  printf("%d\n", (int)strlen(buf));
  return 0;
}|}
  in
  (* the heuristic pays off through the postprocessor: a slowly-varying
     base is free to keep, while a keep of the loop temporary blocks the
     peephole's mov forwarding on it *)
  let measure config ~heuristic =
    cycles_of
      (exec_req (Harness.Request.make ~config ~loop_heuristic:heuristic loop_src))
  in
  let base =
    cycles_of
      (exec_req (Harness.Request.make ~config:Harness.Build.Base loop_src))
  in
  let report name config =
    let on = measure config ~heuristic:true
    and off = measure config ~heuristic:false in
    Printf.printf
      "  string-copy loop (%s): base %d cycles; %+.2f%% with heuristic, \
       %+.2f%% without\n"
      name base
      (100.0 *. float_of_int (on - base) /. float_of_int base)
      (100.0 *. float_of_int (off - base) /. float_of_int base)
  in
  report "safe" Harness.Build.Safe;
  report "safe+peephole" Harness.Build.Safe_peephole;
  (* under register pressure (8-register machine) the heuristic's cost
     side shows: keeping the slowly-varying base live across the loop
     occupies a register that the loop needs *)
  let pressure ~heuristic =
    cycles_of
      (exec_req
         (Harness.Request.make ~config:Harness.Build.Safe_peephole
            ~machine:Machine.Machdesc.pentium90 ~loop_heuristic:heuristic
            loop_src))
  in
  Printf.printf
    "  8-register machine: %d cycles with heuristic, %d without (the paper's \
     caveat:\n   profitable only when the base is \"likely to be live in any \
     case\")\n"
    (pressure ~heuristic:true) (pressure ~heuristic:false);
  print_endline
    "-- optimization (4): collections only at call sites (annotation counts)";
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let count calls_only =
        let ast = Csyntax.Parser.parse_program src in
        let opts =
          { (Gcsafe.Mode.default Gcsafe.Mode.Safe) with Gcsafe.Mode.calls_only }
        in
        (Gcsafe.Annotate.run ~opts ast).Gcsafe.Annotate.keep_live_count
      in
      let full = count false and reduced = count true in
      Printf.printf "  %-10s %4d -> %4d annotations (%.0f%% fewer)\n"
        w.Workloads.Registry.w_name full reduced
        (100.0 *. float_of_int (full - reduced) /. float_of_int full))
    Workloads.Registry.paper_suite;
  print_endline
    "-- heapness analysis (\"sufficiently good program analysis\")";
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let count heapness =
        let ast = Csyntax.Parser.parse_program src in
        let opts =
          {
            (Gcsafe.Mode.default Gcsafe.Mode.Safe) with
            Gcsafe.Mode.heapness_analysis = heapness;
          }
        in
        (Gcsafe.Annotate.run ~opts ast).Gcsafe.Annotate.keep_live_count
      in
      Printf.printf "  %-10s %4d -> %4d annotations\n"
        w.Workloads.Registry.w_name (count false) (count true))
    Workloads.Registry.paper_suite;
  print_endline "-- the pointer-disguising passes (what GC-unsafety buys)";
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let run disguise =
        let ast, _ = Csyntax.Typecheck.check_source src in
        let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode ast in
        ignore
          (Opt.Pipeline.run_program
             {
               Opt.Pipeline.default with
               Opt.Pipeline.disguise_pointers = disguise;
             }
             irp);
        (Machine.Vm.run irp).Machine.Vm.r_cycles
      in
      let with_d = run true and without_d = run false in
      Printf.printf "  %-10s %d cycles with, %d without (%+.2f%%)\n"
        w.Workloads.Registry.w_name with_d without_d
        (100.0
        *. float_of_int (with_d - without_d)
        /. float_of_int without_d))
    Workloads.Registry.paper_suite;
  print_newline ()

(* --- ablation: the lib/analysis dataflow clients ------------------------- *)

let ablate_analysis () =
  print_endline "== Ablation: dataflow-analysis annotation pruning ==";
  print_endline "-- annotation counts (safe mode), analysis off -> on";
  let annotation_counts =
    List.map
      (fun w ->
        let count analysis =
          let ast =
            Csyntax.Parser.parse_program w.Workloads.Registry.w_source
          in
          let opts =
            { (Gcsafe.Mode.default Gcsafe.Mode.Safe) with Gcsafe.Mode.analysis }
          in
          (Gcsafe.Annotate.run ~opts ast).Gcsafe.Annotate.keep_live_count
        in
        let none = count Gcsafe.Mode.A_none
        and flow = count Gcsafe.Mode.A_flow in
        Printf.printf "  %-10s %4d -> %4d annotations (%.0f%% pruned)\n"
          w.Workloads.Registry.w_name none flow
          (100.0 *. float_of_int (none - flow) /. float_of_int (max 1 none));
        ( w.Workloads.Registry.w_name,
          Telemetry.Json.Obj
            [
              ("none", Telemetry.Json.Int none);
              ("flow", Telemetry.Json.Int flow);
            ] ))
      Workloads.Registry.paper_suite
  in
  record "annotations" (Telemetry.Json.Obj annotation_counts);
  print_endline "-- residual -O safe overhead vs -O, analysis off / on";
  List.iter
    (fun (machine : Machine.Machdesc.t) ->
      Printf.printf "  %s:\n" machine.Machine.Machdesc.md_name;
      List.iter
        (fun w ->
          let src = w.Workloads.Registry.w_source in
          let base =
            exec_req
              (Harness.Request.make ~config:Harness.Build.Base ~machine src)
          in
          let base_cycles = Harness.Measure.base_cycles_exn base in
          let slowdown analysis =
            Harness.Measure.slowdown_cell ~base_cycles
              (exec_req
                 (Harness.Request.make ~config:Harness.Build.Safe ~machine
                    ~analysis src))
          in
          Printf.printf "    %-10s %-8s off, %-8s on\n"
            w.Workloads.Registry.w_name
            (slowdown Gcsafe.Mode.A_none)
            (slowdown Gcsafe.Mode.A_flow))
        Workloads.Registry.paper_suite)
    Harness.Differ.default_machines;
  print_newline ()

(* --- GC pause and reclamation-drag statistics ---------------------------- *)

(* One instrumented safe-build run per workload: the metrics registry
   yields the GC pause histogram, the heap profiler the per-site drag.
   Both land in BENCH_4.json; the drag totals are reported per analysis
   variant so the JSON captures what pruning costs in retained garbage. *)
let profile_section () =
  print_endline "== GC pauses and reclamation drag (safe build, sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  let rows =
    List.map
      (fun w ->
        let drag_of analysis =
          let profiler = Telemetry.Heap_profiler.create () in
          let metrics = Telemetry.Metrics.create () in
          let telemetry =
            Some (Telemetry.Sink.make ~metrics ~profiler ())
          in
          (match
             exec_req ?telemetry
               (Harness.Request.make ~config:Harness.Build.Safe ~machine
                  ~analysis ~final_collect:true ~gc_threshold:2048
                  w.Workloads.Registry.w_source)
           with
          | Harness.Measure.Ran _ -> ()
          | o -> failwith (Harness.Measure.describe o));
          (Telemetry.Heap_profiler.report profiler, metrics)
        in
        let rep_none, _ = drag_of Gcsafe.Mode.A_none in
        let rep_flow, metrics = drag_of Gcsafe.Mode.A_flow in
        let pause_json =
          match
            Telemetry.Metrics.find
              (Telemetry.Metrics.snapshot metrics)
              "vm/gc/pause_ns"
          with
          | Some (Telemetry.Metrics.Histogram { count; sum; max; buckets }) ->
              Telemetry.Json.Obj
                [
                  ("collections", Telemetry.Json.Int count);
                  ("total_ns", Telemetry.Json.Int sum);
                  ("max_ns", Telemetry.Json.Int max);
                  ( "p90_ns",
                    Telemetry.Json.Int
                      (Telemetry.Metrics.percentile buckets 0.9) );
                ]
          | _ -> Telemetry.Json.Null
        in
        Printf.printf
          "  %-10s drag %10d ticks (analysis=none) %10d (flow); %d \
           alloc(s)\n"
          w.Workloads.Registry.w_name
          rep_none.Telemetry.Heap_profiler.r_total_drag
          rep_flow.Telemetry.Heap_profiler.r_total_drag
          rep_flow.Telemetry.Heap_profiler.r_total_allocs;
        ( w.Workloads.Registry.w_name,
          Telemetry.Json.Obj
            [
              ( "drag_ticks_none",
                Telemetry.Json.Int rep_none.Telemetry.Heap_profiler.r_total_drag
              );
              ( "drag_ticks_flow",
                Telemetry.Json.Int rep_flow.Telemetry.Heap_profiler.r_total_drag
              );
              ( "allocs",
                Telemetry.Json.Int
                  rep_flow.Telemetry.Heap_profiler.r_total_allocs );
              ("gc_pause", pause_json);
            ] ))
      Workloads.Registry.paper_suite
  in
  record "gc_profile" (Telemetry.Json.Obj rows);
  print_newline ()

(* --- ablation: telemetry overhead ---------------------------------------- *)

(* The acceptance bar for the instrumentation: with no sink attached the
   VM must run at full speed.  Cycle counts must be bit-identical either
   way (telemetry never perturbs execution); wall clock is reported for
   the off/metrics-on comparison. *)
let ablate_telemetry () =
  print_endline "== Ablation: telemetry overhead (safe build, sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  let rows =
    List.map
      (fun w ->
        let req =
          Harness.Request.make ~config:Harness.Build.Safe ~machine
            w.Workloads.Registry.w_source
        in
        let b =
          Harness.Build.compile
            ~options:(Harness.Request.build_options req)
            Harness.Build.Safe w.Workloads.Registry.w_source
        in
        let timed telemetry =
          let t0 = Unix.gettimeofday () in
          match Harness.Measure.exec ?telemetry req b with
          | Harness.Measure.Ran r ->
              (Unix.gettimeofday () -. t0, r.Harness.Measure.o_cycles)
          | o -> failwith (Harness.Measure.describe o)
        in
        let off_s, off_cycles = timed Telemetry.Sink.none in
        let on_s, on_cycles =
          timed (Some (Telemetry.Sink.make ()))
        in
        if off_cycles <> on_cycles then
          failwith
            (Printf.sprintf "%s: telemetry perturbed execution (%d vs %d)"
               w.Workloads.Registry.w_name off_cycles on_cycles);
        Printf.printf
          "  %-10s %.3fs off  %.3fs metrics-on  (x%.2f, cycles identical)\n"
          w.Workloads.Registry.w_name off_s on_s
          (on_s /. (off_s +. 1e-9));
        ( w.Workloads.Registry.w_name,
          Telemetry.Json.Obj
            [
              ("off_seconds", Telemetry.Json.Float off_s);
              ("metrics_seconds", Telemetry.Json.Float on_s);
              ("cycles", Telemetry.Json.Int off_cycles);
            ] ))
      Workloads.Registry.paper_suite
  in
  record "telemetry_overhead" (Telemetry.Json.Obj rows);
  print_newline ()

(* --- bechamel micro-benchmarks of the collector primitives --------------- *)

let micro () =
  print_endline "== Micro: collector primitive costs (bechamel, wall clock) ==";
  let open Bechamel in
  let heap = Gcheap.Heap.create () in
  let objs =
    Array.init 1024 (fun i -> Gcheap.Heap.alloc heap (16 + (i mod 200)))
  in
  let test_alloc =
    Test.make ~name:"GC_malloc 48 bytes"
      (Staged.stage (fun () -> ignore (Gcheap.Heap.alloc heap 48)))
  in
  let i = ref 0 in
  let test_base =
    Test.make ~name:"GC_base (height-2 page map)"
      (Staged.stage (fun () ->
           i := (!i + 1) land 1023;
           ignore (Gcheap.Heap.base_of heap (objs.(!i) + 7))))
  in
  let test_same_obj =
    Test.make ~name:"GC_same_obj"
      (Staged.stage (fun () ->
           i := (!i + 1) land 1023;
           ignore (Gcheap.Heap.same_obj heap (objs.(!i) + 8) objs.(!i))))
  in
  let test_collect =
    let h2 = Gcheap.Heap.create () in
    let roots =
      Array.to_list (Array.init 64 (fun i -> Gcheap.Heap.alloc h2 (24 + i)))
    in
    Test.make ~name:"full collection (64 live objects)"
      (Staged.stage (fun () ->
           ignore (Gcheap.Heap.collect ~extra_roots:roots h2)))
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-36s %10.1f ns/op\n" name est
        | _ -> Printf.printf "  %-36s (no estimate)\n" name)
      results
  in
  (* the Related Work comparison: our page-map check vs a Jones &
     Kelly-style splay tree of objects *)
  let splay = Gcheap.Splay.create () in
  Array.iter
    (fun a ->
      match Gcheap.Heap.base_of heap a with
      | Some base -> (
          match Gcheap.Heap.extent_of heap base with
          | Some (b, sz) ->
              if Gcheap.Splay.find splay b = None then
                Gcheap.Splay.insert splay ~base:b ~size:sz
          | None -> ())
      | None -> ())
    objs;
  let test_splay_same_obj =
    Test.make ~name:"same_obj via splay tree [JonesKelly95]"
      (Staged.stage (fun () ->
           i := (!i + 1) land 1023;
           ignore (Gcheap.Splay.same_obj splay (objs.(!i) + 8) objs.(!i))))
  in
  List.iter benchmark
    [ test_alloc; test_base; test_same_obj; test_splay_same_obj; test_collect ];
  print_newline ()

(* --- generational collector: minor vs major pauses (BENCH_5.json) -------- *)

(* The pause comparison uses the VM-tick clock — words scanned per
   collection — so the numbers are deterministic: no instructions retire
   during a collection, and the scan volume is what a pause costs in
   mutator terms.  Majors come from a stop-the-world run (the paper's
   collector: every collection scans the full live heap); minors from a
   generational run of the same build at the same threshold.  Both runs
   must produce identical output — the collector mode is not allowed to
   be observable. *)

let bench5_data : (string * Telemetry.Json.t) list ref = ref []

let record5 key v = bench5_data := (key, v) :: !bench5_data

let write_bench5_json () =
  if !bench5_data <> [] then begin
    let doc = Telemetry.Json.Obj (List.rev !bench5_data) in
    Out_channel.with_open_text "BENCH_5.json" (fun oc ->
        Out_channel.output_string oc (Telemetry.Json.to_string doc ^ "\n"));
    Printf.printf "wrote BENCH_5.json\n"
  end

let gcmodes () =
  print_endline
    "== GC modes: generational minor pauses vs stop-the-world majors \
     (safe build, sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  (* small enough that majors fire mid-run against a live heap, not just
     at exit *)
  let threshold = 16384 in
  let hist snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Histogram { count; buckets; _ }) ->
        ( count,
          Telemetry.Metrics.percentile buckets 0.5,
          Telemetry.Metrics.percentile buckets 0.9 )
    | _ -> (0, 0, 0)
  in
  let counter snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  let run_mode src gc_mode =
    let metrics = Telemetry.Metrics.create () in
    let telemetry = Some (Telemetry.Sink.make ~metrics ()) in
    match
      exec_req ?telemetry
        (Harness.Request.make ~config:Harness.Build.Safe ~machine ~gc_mode
           ~final_collect:true ~gc_threshold:threshold src)
    with
    | Harness.Measure.Ran r ->
        (r.Harness.Measure.o_output, Telemetry.Metrics.snapshot metrics)
    | o -> failwith (Harness.Measure.describe o)
  in
  let rows =
    List.map
      (fun name ->
        let w =
          match Workloads.Registry.by_name name with
          | Some w -> w
          | None -> failwith ("unknown workload " ^ name)
        in
        let src = w.Workloads.Registry.w_source in
        let stw_out, stw = run_mode src Gcheap.Heap.Stw in
        let gen_out, gen = run_mode src Gcheap.Heap.Gen in
        if not (String.equal stw_out gen_out) then
          failwith (name ^ ": gc mode changed program output");
        let majors, major_p50, major_p90 = hist stw "vm/gc/major/pause_words" in
        let minors, minor_p50, minor_p90 = hist gen "vm/gc/minor/pause_words" in
        let gen_majors, gen_major_p50, _ = hist gen "vm/gc/major/pause_words" in
        Printf.printf
          "  %-10s minor p50 %6d words (n=%d)   stw major p50 %6d words \
           (n=%d)   %4.1fx smaller\n"
          name minor_p50 minors major_p50 majors
          (float_of_int major_p50 /. float_of_int (max 1 minor_p50));
        Printf.printf
          "  %-10s gen-mode majors: %d (p50 %d words); promoted %d, cards \
           scanned %d\n"
          "" gen_majors gen_major_p50
          (counter gen "vm/gc/promotions")
          (counter gen "vm/gc/cards_scanned");
        ( name,
          Telemetry.Json.Obj
            [
              ("minor_collections", Telemetry.Json.Int minors);
              ("minor_p50_pause_words", Telemetry.Json.Int minor_p50);
              ("minor_p90_pause_words", Telemetry.Json.Int minor_p90);
              ("major_collections", Telemetry.Json.Int majors);
              ("major_p50_pause_words", Telemetry.Json.Int major_p50);
              ("major_p90_pause_words", Telemetry.Json.Int major_p90);
              ("gen_major_collections", Telemetry.Json.Int gen_majors);
              ("promotions", Telemetry.Json.Int (counter gen "vm/gc/promotions"));
              ( "cards_scanned",
                Telemetry.Json.Int (counter gen "vm/gc/cards_scanned") );
              ("outputs_match", Telemetry.Json.Bool true);
            ] ))
      [ "cordtest"; "cfrac" ]
  in
  record5 "gc_threshold" (Telemetry.Json.Int threshold);
  record5 "pauses" (Telemetry.Json.Obj rows);
  (* the differential matrix over both collector modes: unsafe examples
     must fail identically, safe builds must never diverge *)
  print_endline
    "-- stw/gen differential scan (example corpus, every schedule mode)";
  let plan =
    {
      Stress.Driver.default_plan with
      Stress.Driver.p_matrix =
        {
          Harness.Request.default_matrix with
          Harness.Request.m_machines = [ machine ];
          Harness.Request.m_gc_modes = [ Gcheap.Heap.Stw; Gcheap.Heap.Gen ];
        };
    }
  in
  let targets =
    match Stress.Corpus.resolve "examples" with
    | Some ts -> ts
    | None -> failwith "example corpus missing"
  in
  let report = Stress.Driver.run ~plan targets in
  let unexpected = List.length (Stress.Driver.unexpected report) in
  Printf.printf
    "  %d target(s), %d subject(s), %d run(s): %d finding(s), %d unexpected \
     divergence(s)\n"
    report.Stress.Driver.r_targets report.Stress.Driver.r_subjects
    report.Stress.Driver.r_runs
    (List.length report.Stress.Driver.r_findings)
    unexpected;
  if unexpected > 0 then failwith "stw/gen divergence in the example corpus";
  record5 "stress"
    (Telemetry.Json.Obj
       [
         ("targets", Telemetry.Json.Int report.Stress.Driver.r_targets);
         ("subjects", Telemetry.Json.Int report.Stress.Driver.r_subjects);
         ("runs", Telemetry.Json.Int report.Stress.Driver.r_runs);
         ( "findings",
           Telemetry.Json.Int (List.length report.Stress.Driver.r_findings) );
         ("unexpected_divergences", Telemetry.Json.Int unexpected);
       ]);
  print_newline ()

(* --- bump nursery: alloc throughput and minor pauses (BENCH_10.json) ----- *)

(* A generational run of every paper workload on the bump nursery, plus
   a stop-the-world reference whose output it must reproduce.  Pause and
   card numbers stay on the deterministic words-of-work clock;
   allocation throughput (objects per wall second over the VM run only,
   builds excluded) is the one wall-clock figure.  CI holds the minor
   p50 pauses to the committed ci/nursery-baseline.json. *)

let bench10_data : (string * Telemetry.Json.t) list ref = ref []

let record10 key v = bench10_data := (key, v) :: !bench10_data

let write_bench10_json () =
  if !bench10_data <> [] then begin
    let doc = Telemetry.Json.Obj (List.rev !bench10_data) in
    Out_channel.with_open_text "BENCH_10.json" (fun oc ->
        Out_channel.output_string oc (Telemetry.Json.to_string doc ^ "\n"));
    Printf.printf "wrote BENCH_10.json\n"
  end

let nursery_section () =
  print_endline
    "== Nursery: bump-pointer allocation throughput and minor pauses \
     (safe build, sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  let threshold = 16384 in
  let hist snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Histogram { count; buckets; _ }) ->
        ( count,
          Telemetry.Metrics.percentile buckets 0.5,
          Telemetry.Metrics.percentile buckets 0.9 )
    | _ -> (0, 0, 0)
  in
  let run src gc_mode =
    let metrics = Telemetry.Metrics.create () in
    let telemetry = Some (Telemetry.Sink.make ~metrics ()) in
    let req =
      Harness.Request.make ~config:Harness.Build.Safe ~machine ~gc_mode
        ~final_collect:true ~gc_threshold:threshold src
    in
    let b =
      Harness.Build.compile
        ~options:(Harness.Request.build_options req)
        req.Harness.Request.config src
    in
    let t0 = Unix.gettimeofday () in
    match Harness.Measure.exec ?telemetry req b with
    | Harness.Measure.Ran r ->
        (r, Telemetry.Metrics.snapshot metrics, Unix.gettimeofday () -. t0)
    | o -> failwith (Harness.Measure.describe o)
  in
  let rows =
    List.map
      (fun (w : Workloads.Registry.workload) ->
        let name = w.Workloads.Registry.w_name in
        let src = w.Workloads.Registry.w_source in
        let stw, _, _ = run src Gcheap.Heap.Stw in
        let gen, gen_m, gen_s = run src Gcheap.Heap.Gen in
        let outputs_match =
          String.equal stw.Harness.Measure.o_output gen.Harness.Measure.o_output
        in
        if not outputs_match then
          failwith (name ^ ": nursery changed program output");
        let minors, p50, p90 = hist gen_m "vm/gc/minor/pause_words" in
        let cards =
          match Telemetry.Metrics.find gen_m "vm/gc/cards_scanned" with
          | Some (Telemetry.Metrics.Counter n) -> n
          | _ -> 0
        in
        let rate =
          float_of_int gen.Harness.Measure.o_allocs /. max 1e-9 gen_s
        in
        Printf.printf
          "  %-10s alloc throughput %8.0f obj/s   minor p50 %6d words   %4d \
           cards scanned\n"
          name rate p50 cards;
        ( name,
          Telemetry.Json.Obj
            [
              ("outputs_match", Telemetry.Json.Bool outputs_match);
              ("allocs", Telemetry.Json.Int gen.Harness.Measure.o_allocs);
              ( "nursery",
                Telemetry.Json.Obj
                  [
                    ("minor_collections", Telemetry.Json.Int minors);
                    ("minor_p50_pause_words", Telemetry.Json.Int p50);
                    ("minor_p90_pause_words", Telemetry.Json.Int p90);
                    ("cards_scanned", Telemetry.Json.Int cards);
                    ("vm_seconds", Telemetry.Json.Float gen_s);
                    ("allocs_per_second", Telemetry.Json.Float rate);
                  ] );
            ] ))
      Workloads.Registry.paper_suite
  in
  record10 "gc_threshold" (Telemetry.Json.Int threshold);
  record10 "workloads" (Telemetry.Json.Obj rows);
  (* differential matrices with the nursery on: the schedule sweep over
     stw/gen/inc and the chaos sweeps must both see zero unexpected
     divergences *)
  print_endline
    "-- stw/gen/inc differential scan with the nursery enabled (example \
     corpus)";
  let targets =
    match Stress.Corpus.resolve "examples" with
    | Some ts -> ts
    | None -> failwith "example corpus missing"
  in
  let matrix =
    {
      Harness.Request.default_matrix with
      Harness.Request.m_machines = [ machine ];
      Harness.Request.m_gc_modes =
        [ Gcheap.Heap.Stw; Gcheap.Heap.Gen; Gcheap.Heap.Inc ];
    }
  in
  let plan =
    { Stress.Driver.default_plan with Stress.Driver.p_matrix = matrix }
  in
  let report = Stress.Driver.run ~plan targets in
  let unexpected = List.length (Stress.Driver.unexpected report) in
  Printf.printf
    "  %d target(s), %d subject(s), %d run(s): %d unexpected divergence(s)\n"
    report.Stress.Driver.r_targets report.Stress.Driver.r_subjects
    report.Stress.Driver.r_runs unexpected;
  if unexpected > 0 then
    failwith "stw/gen/inc divergence with the nursery enabled";
  print_endline "-- chaos sweeps with the nursery enabled (example corpus)";
  let chaos_plan =
    {
      Stress.Chaos.default_plan with
      Stress.Chaos.c_matrix =
        {
          Stress.Chaos.default_plan.Stress.Chaos.c_matrix with
          Harness.Request.m_machines = [ machine ];
          Harness.Request.m_gc_modes = [ Gcheap.Heap.Gen; Gcheap.Heap.Inc ];
        };
    }
  in
  let chaos_report = Stress.Chaos.run ~plan:chaos_plan targets in
  let chaos_unexpected = List.length (Stress.Chaos.unexpected chaos_report) in
  Printf.printf "  %d unexpected chaos finding(s)\n" chaos_unexpected;
  if chaos_unexpected > 0 then
    failwith "chaos divergence with the nursery enabled";
  record10 "stress"
    (Telemetry.Json.Obj
       [
         ("targets", Telemetry.Json.Int report.Stress.Driver.r_targets);
         ("subjects", Telemetry.Json.Int report.Stress.Driver.r_subjects);
         ("runs", Telemetry.Json.Int report.Stress.Driver.r_runs);
         ("unexpected_divergences", Telemetry.Json.Int unexpected);
         ("chaos_unexpected", Telemetry.Json.Int chaos_unexpected);
       ]);
  print_newline ()

(* --- resilience: OOM recovery and chaos sweeps (BENCH_6.json) ------------ *)

(* Three deterministic measurements of the chaos-hardened runtime:

   1. Chaos off is free and invisible: running with the OOM machinery
      explicitly threaded (an effectively unlimited heap ceiling, the
      collect-expand policy, no failpoints) must produce bit-identical
      cycle counts and output to the default run, in both collector
      modes.  Any drift means the failure paths leak into healthy runs.

   2. Emergency collection earns its keep: for every workload, the
      smallest heap ceiling under which collect-expand completes is
      found by search, and the trap policy must exhaust at that same
      ceiling — the gap is exactly what collect-then-expand recovers.

   3. The chaos sweeps (injected allocation failures, worker crashes,
      cache corruption) over every workload report zero unexpected
      findings. *)

let bench6_data : (string * Telemetry.Json.t) list ref = ref []

let record6 key v = bench6_data := (key, v) :: !bench6_data

let write_bench6_json () =
  if !bench6_data <> [] then begin
    let doc = Telemetry.Json.Obj (List.rev !bench6_data) in
    Out_channel.with_open_text "BENCH_6.json" (fun oc ->
        Out_channel.output_string oc (Telemetry.Json.to_string doc ^ "\n"));
    Printf.printf "wrote BENCH_6.json\n"
  end

let resilience () =
  print_endline "== Resilience: OOM recovery and chaos sweeps (sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  let build gc_mode src =
    Harness.Build.compile
      ~options:
        { (Harness.Build.for_machine machine) with Harness.Build.gc_mode }
      Harness.Build.Safe src
  in
  (* 1. chaos-off identity *)
  print_endline
    "-- chaos off: explicit OOM machinery vs default run (must be \
     bit-identical)";
  let identity_rows =
    List.concat_map
      (fun w ->
        List.map
          (fun gc_mode ->
            let src = w.Workloads.Registry.w_source in
            let b = build gc_mode src in
            let req0 =
              Harness.Request.make ~config:Harness.Build.Safe ~machine
                ~gc_mode src
            in
            let run ?(heap_limit = 0)
                ?(oom_policy = Gcheap.Heap.Collect_expand)
                ?(alloc_failpoints = Gcheap.Failpoint.Never) () =
              match
                Harness.Measure.exec
                  {
                    req0 with
                    Harness.Request.heap_limit;
                    oom_policy;
                    alloc_failpoints;
                  }
                  b
              with
              | Harness.Measure.Ran r -> r
              | o -> failwith (Harness.Measure.describe o)
            in
            let plain = run () in
            let guarded =
              run ~heap_limit:(1 lsl 30)
                ~oom_policy:Gcheap.Heap.Collect_expand
                ~alloc_failpoints:Gcheap.Failpoint.Never ()
            in
            if plain.Harness.Measure.o_cycles <> guarded.Harness.Measure.o_cycles
            then
              failwith
                (Printf.sprintf
                   "%s (%s): chaos-off cycles drifted: %d default vs %d \
                    guarded"
                   w.Workloads.Registry.w_name
                   (Gcheap.Heap.gc_mode_name gc_mode)
                   plain.Harness.Measure.o_cycles
                   guarded.Harness.Measure.o_cycles);
            if
              not
                (String.equal plain.Harness.Measure.o_output
                   guarded.Harness.Measure.o_output)
            then
              failwith
                (w.Workloads.Registry.w_name
               ^ ": chaos-off output drifted under the OOM machinery");
            Printf.printf "  %-10s %-4s %9d cycle(s), identical\n"
              w.Workloads.Registry.w_name
              (Gcheap.Heap.gc_mode_name gc_mode)
              plain.Harness.Measure.o_cycles;
            ( w.Workloads.Registry.w_name ^ "_"
              ^ Gcheap.Heap.gc_mode_name gc_mode,
              Telemetry.Json.Obj
                [
                  ("cycles", Telemetry.Json.Int plain.Harness.Measure.o_cycles);
                  ("identical", Telemetry.Json.Bool true);
                ] ))
          [ Gcheap.Heap.Stw; Gcheap.Heap.Gen ])
      Workloads.Registry.paper_suite
  in
  record6 "chaos_off" (Telemetry.Json.Obj identity_rows);
  record6 "chaos_off_identical" (Telemetry.Json.Bool true);
  (* 2. collect-expand recovery margin *)
  print_endline
    "-- emergency collection margin: smallest ceiling where collect-expand \
     completes must trap under the trap policy";
  let margin_rows =
    List.map
      (fun w ->
        let b = build Gcheap.Heap.Stw w.Workloads.Registry.w_source in
        let req0 =
          Harness.Request.make ~config:Harness.Build.Safe ~machine
            w.Workloads.Registry.w_source
        in
        let outcome limit policy =
          Harness.Measure.exec
            {
              req0 with
              Harness.Request.heap_limit = limit;
              Harness.Request.oom_policy = policy;
            }
            b
        in
        let completes limit =
          match outcome limit Gcheap.Heap.Collect_expand with
          | Harness.Measure.Ran r -> Some r
          | Harness.Measure.Exhausted _ -> None
          | o -> failwith (Harness.Measure.describe o)
        in
        (* bracket the smallest collect-expand-viable ceiling, then
           binary-search it; allocation is deterministic, so the search
           is too *)
        let hi = ref 1024 in
        while completes !hi = None && !hi < 1 lsl 24 do
          hi := !hi * 2
        done;
        if completes !hi = None then
          failwith (w.Workloads.Registry.w_name ^ ": no viable heap ceiling");
        let lo = ref (!hi / 2) in
        (* invariant: !hi completes, !lo does not (1024/2 = 512 words is
           below a single page) *)
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if completes mid = None then lo := mid else hi := mid
        done;
        let min_limit = !hi in
        let recovered =
          match completes min_limit with
          | Some r -> r
          | None -> assert false
        in
        let trap_exhausts =
          match outcome min_limit Gcheap.Heap.Trap with
          | Harness.Measure.Exhausted _ -> true
          | Harness.Measure.Ran _ -> false
          | o -> failwith (Harness.Measure.describe o)
        in
        if not trap_exhausts then
          failwith
            (w.Workloads.Registry.w_name
           ^ ": trap policy completed at the collect-expand minimum — \
              emergency collection recovered nothing");
        Printf.printf
          "  %-10s min ceiling %7d words: collect-expand ok (%d emergency \
           collection(s)), trap exhausts\n"
          w.Workloads.Registry.w_name min_limit
          recovered.Harness.Measure.o_emergency;
        ( w.Workloads.Registry.w_name,
          Telemetry.Json.Obj
            [
              ("min_limit_words", Telemetry.Json.Int min_limit);
              ( "emergency_collections",
                Telemetry.Json.Int recovered.Harness.Measure.o_emergency );
              ("collect_expand_completes", Telemetry.Json.Bool true);
              ("trap_exhausts", Telemetry.Json.Bool trap_exhausts);
            ] ))
      Workloads.Registry.paper_suite
  in
  record6 "recovery_margin" (Telemetry.Json.Obj margin_rows);
  (* 3. chaos sweeps over the paper suite *)
  print_endline "-- chaos sweeps (allocation failures, worker faults, cache)";
  let plan =
    {
      Stress.Chaos.default_plan with
      Stress.Chaos.c_matrix =
        {
          Stress.Chaos.default_plan.Stress.Chaos.c_matrix with
          Harness.Request.m_machines = [ machine ];
        };
      Stress.Chaos.c_max_points = 8;
      Stress.Chaos.c_trap_probes = 2;
    }
  in
  let report = Stress.Chaos.run ~plan Stress.Corpus.workloads in
  Format.printf "%a@." Stress.Chaos.pp_report report;
  if Stress.Chaos.unexpected report <> [] then
    failwith "unexpected chaos finding in the paper suite";
  record6 "chaos"
    (Telemetry.Json.Obj
       [
         ("seed", Telemetry.Json.Int report.Stress.Chaos.c_plan_seed);
         ("subjects", Telemetry.Json.Int report.Stress.Chaos.c_subject_count);
         ("injections", Telemetry.Json.Int report.Stress.Chaos.c_injections);
         ("recovered", Telemetry.Json.Int report.Stress.Chaos.c_recovered);
         ("structured", Telemetry.Json.Int report.Stress.Chaos.c_structured);
         ( "emergency_collections",
           Telemetry.Json.Int report.Stress.Chaos.c_emergency_collections );
         ( "worker_faults",
           Telemetry.Json.Int report.Stress.Chaos.c_worker_faults );
         ( "worker_restarts",
           Telemetry.Json.Int report.Stress.Chaos.c_worker_restarts );
         ( "cache_corruptions",
           Telemetry.Json.Int report.Stress.Chaos.c_cache_corruptions );
         ( "cache_recovered",
           Telemetry.Json.Int report.Stress.Chaos.c_cache_recovered );
         ("quarantined", Telemetry.Json.Int report.Stress.Chaos.c_quarantined);
         ( "findings",
           Telemetry.Json.Int (List.length report.Stress.Chaos.c_findings) );
         ( "unexpected",
           Telemetry.Json.Int
             (List.length (Stress.Chaos.unexpected report)) );
       ]);
  print_newline ()

(* --- incremental marking: pause-time SLOs (BENCH_8.json) ----------------- *)

(* Pause numbers live on the same deterministic clock as BENCH_5: words
   of collector work per increment, so the sweep is reproducible and
   gateable.  For every paper workload and every budget in the sweep,
   the incremental run must (a) produce bit-identical output to the
   stop-the-world run of the same build, and (b) keep its p99 increment
   at or below the budget.  Only a cycle's two atomic fences — the root
   snapshot and mark finalization — may overrun, which is why the CI
   gate reads the 2048-word row: the largest atomic root scan in the
   suite (gs) is ~1.1k words, so from 2048 up even those fit.

   The service tier then replays the four workloads through [gcsafed]
   per budget: each request carries the budget as its pause SLO, and
   the [service/slo/{met,violated}] counters plus the end-to-end
   latency percentiles land next to the BENCH_7 bombardment
   baselines. *)

let bench8_data : (string * Telemetry.Json.t) list ref = ref []

let record8 key v = bench8_data := (key, v) :: !bench8_data

let write_bench8_json () =
  if !bench8_data <> [] then begin
    let doc = Telemetry.Json.Obj (List.rev !bench8_data) in
    Out_channel.with_open_text "BENCH_8.json" (fun oc ->
        Out_channel.output_string oc (Telemetry.Json.to_string doc ^ "\n"));
    Printf.printf "wrote BENCH_8.json\n"
  end

let incremental () =
  print_endline
    "== Incremental marking: pause percentiles vs budget (safe build, \
     sparc10) ==";
  let machine = Machine.Machdesc.sparc10 in
  let threshold = 16384 in
  let budgets = [ 256; 512; 1024; 2048; 4096 ] in
  let hist snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Histogram { count; buckets; _ }) ->
        ( count,
          Telemetry.Metrics.percentile buckets 0.5,
          Telemetry.Metrics.percentile buckets 0.99 )
    | _ -> (0, 0, 0)
  in
  let counter snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  let run_mode ?gc_pause_budget src gc_mode =
    let metrics = Telemetry.Metrics.create () in
    let telemetry = Some (Telemetry.Sink.make ~metrics ()) in
    match
      exec_req ?telemetry
        (Harness.Request.make ~config:Harness.Build.Safe ~machine ~gc_mode
           ?gc_pause_budget ~final_collect:true ~gc_threshold:threshold src)
    with
    | Harness.Measure.Ran r ->
        (r.Harness.Measure.o_output, Telemetry.Metrics.snapshot metrics)
    | o -> failwith (Harness.Measure.describe o)
  in
  let rows =
    List.map
      (fun w ->
        let name = w.Workloads.Registry.w_name in
        let src = w.Workloads.Registry.w_source in
        let stw_out, _ = run_mode src Gcheap.Heap.Stw in
        let cells =
          List.map
            (fun budget ->
              let out, snap =
                run_mode ~gc_pause_budget:budget src Gcheap.Heap.Inc
              in
              if not (String.equal out stw_out) then
                failwith (name ^ ": incremental mode changed program output");
              let n, p50, p99 = hist snap "vm/gc/incremental/pause_words" in
              let overruns = counter snap "vm/gc/incremental/budget_overruns" in
              Printf.printf
                "  %-10s budget %5d: %6d increment(s)  p50 %5d  p99 %5d \
                 words  overrun(s) %d\n"
                name budget n p50 p99 overruns;
              ( string_of_int budget,
                Telemetry.Json.Obj
                  [
                    ("increments", Telemetry.Json.Int n);
                    ("p50_pause_words", Telemetry.Json.Int p50);
                    ("p99_pause_words", Telemetry.Json.Int p99);
                    ( "final_marks",
                      Telemetry.Json.Int
                        (counter snap "vm/gc/incremental/final_marks") );
                    ( "barrier_grays",
                      Telemetry.Json.Int
                        (counter snap "vm/gc/incremental/barrier_grays") );
                    ("budget_overruns", Telemetry.Json.Int overruns);
                    (* the histogram buckets are powers of two, so the
                       p99 estimate rounds up to a bucket bound; zero
                       overruns is the exact statement that every
                       increment — p99 included — fit the budget *)
                    ("within_budget", Telemetry.Json.Bool (overruns = 0));
                    ("outputs_match", Telemetry.Json.Bool true);
                  ] ))
            budgets
        in
        (name, Telemetry.Json.Obj cells))
      Workloads.Registry.paper_suite
  in
  record8 "gc_threshold" (Telemetry.Json.Int threshold);
  record8 "budget_sweep_words"
    (Telemetry.Json.List (List.map (fun b -> Telemetry.Json.Int b) budgets));
  record8 "pauses" (Telemetry.Json.Obj rows);
  (* the differential matrix over all three collector modes, then the
     chaos sweep: emergency collections landing mid-cycle must abandon
     soundly, never diverge *)
  print_endline
    "-- stw/gen/inc differential scan (example corpus, every schedule mode)";
  let all_modes = [ Gcheap.Heap.Stw; Gcheap.Heap.Gen; Gcheap.Heap.Inc ] in
  let plan =
    {
      Stress.Driver.default_plan with
      Stress.Driver.p_matrix =
        {
          Harness.Request.default_matrix with
          Harness.Request.m_machines = [ machine ];
          Harness.Request.m_gc_modes = all_modes;
        };
    }
  in
  let targets =
    match Stress.Corpus.resolve "examples" with
    | Some ts -> ts
    | None -> failwith "example corpus missing"
  in
  let report = Stress.Driver.run ~plan targets in
  let unexpected = List.length (Stress.Driver.unexpected report) in
  Printf.printf
    "  %d target(s), %d subject(s), %d run(s): %d finding(s), %d unexpected \
     divergence(s)\n"
    report.Stress.Driver.r_targets report.Stress.Driver.r_subjects
    report.Stress.Driver.r_runs
    (List.length report.Stress.Driver.r_findings)
    unexpected;
  if unexpected > 0 then
    failwith "stw/gen/inc divergence in the example corpus";
  record8 "stress"
    (Telemetry.Json.Obj
       [
         ("targets", Telemetry.Json.Int report.Stress.Driver.r_targets);
         ("subjects", Telemetry.Json.Int report.Stress.Driver.r_subjects);
         ("runs", Telemetry.Json.Int report.Stress.Driver.r_runs);
         ( "findings",
           Telemetry.Json.Int (List.length report.Stress.Driver.r_findings) );
         ("unexpected_divergences", Telemetry.Json.Int unexpected);
       ]);
  print_endline
    "-- chaos sweep over all three modes (alloc failures mid-cycle)";
  let chaos_plan =
    {
      Stress.Chaos.default_plan with
      Stress.Chaos.c_matrix =
        {
          Stress.Chaos.default_plan.Stress.Chaos.c_matrix with
          Harness.Request.m_machines = [ machine ];
          Harness.Request.m_gc_modes = all_modes;
        };
      Stress.Chaos.c_max_points = 8;
      Stress.Chaos.c_trap_probes = 2;
    }
  in
  let chaos_report = Stress.Chaos.run ~plan:chaos_plan Stress.Corpus.workloads in
  Format.printf "%a@." Stress.Chaos.pp_report chaos_report;
  let chaos_unexpected = List.length (Stress.Chaos.unexpected chaos_report) in
  if chaos_unexpected > 0 then
    failwith "unexpected chaos finding under incremental marking";
  record8 "chaos"
    (Telemetry.Json.Obj
       [
         ("seed", Telemetry.Json.Int chaos_report.Stress.Chaos.c_plan_seed);
         ( "subjects",
           Telemetry.Json.Int chaos_report.Stress.Chaos.c_subject_count );
         ( "injections",
           Telemetry.Json.Int chaos_report.Stress.Chaos.c_injections );
         ( "emergency_collections",
           Telemetry.Json.Int chaos_report.Stress.Chaos.c_emergency_collections
         );
         ("unexpected", Telemetry.Json.Int chaos_unexpected);
       ]);
  (* the service tier: the budget is the per-request pause SLO *)
  print_endline "-- gcsafed: end-to-end latency and SLO accounting per budget";
  let service gc_mode gc_pause_budget =
    let t = Service.Gcsafed.create Service.Gcsafed.default_config in
    List.iteri
      (fun i w ->
        Service.Gcsafed.submit ~arrival:(i * 1000) t
          (Harness.Request.make ~label:w.Workloads.Registry.w_name
             ~config:Harness.Build.Safe ~machine ~gc_mode ?gc_pause_budget
             ~gc_threshold:threshold w.Workloads.Registry.w_source))
      Workloads.Registry.paper_suite;
    Service.Gcsafed.shutdown t;
    let rp = Service.Gcsafed.report t in
    let snap = Telemetry.Metrics.snapshot (Service.Gcsafed.metrics t) in
    if rp.Service.Gcsafed.rp_unexpected > 0 then
      failwith "unexpected outcome in the SLO service sweep";
    (* exact end-to-end latencies from the completions (the registry
       histogram buckets are too coarse to resolve a budget sweep) *)
    let lat =
      List.sort compare
        (List.map
           (fun c ->
             c.Service.Gcsafed.r_finish - c.Service.Gcsafed.r_arrival)
           (Service.Gcsafed.completions t))
    in
    let pct p =
      match lat with
      | [] -> 0
      | _ ->
          let n = List.length lat in
          let rank = min (n - 1) (int_of_float (ceil (p *. float n)) - 1) in
          List.nth lat (max 0 rank)
    in
    ( pct 0.5,
      pct 0.99,
      counter snap "service/slo/met",
      counter snap "service/slo/violated" )
  in
  let stw_p50, stw_p99, _, _ = service Gcheap.Heap.Stw None in
  Printf.printf "  %-16s latency p50 %8d  p99 %8d ticks (baseline)\n" "stw"
    stw_p50 stw_p99;
  let inc_rows =
    List.map
      (fun budget ->
        let p50, p99, met, violated =
          service Gcheap.Heap.Inc (Some budget)
        in
        Printf.printf
          "  inc budget %5d: latency p50 %8d  p99 %8d ticks   slo met %d / \
           violated %d\n"
          budget p50 p99 met violated;
        ( string_of_int budget,
          Telemetry.Json.Obj
            [
              ("latency_p50", Telemetry.Json.Int p50);
              ("latency_p99", Telemetry.Json.Int p99);
              ("slo_met", Telemetry.Json.Int met);
              ("slo_violated", Telemetry.Json.Int violated);
            ] ))
      budgets
  in
  record8 "service"
    (Telemetry.Json.Obj
       [
         ( "stw_baseline",
           Telemetry.Json.Obj
             [
               ("latency_p50", Telemetry.Json.Int stw_p50);
               ("latency_p99", Telemetry.Json.Int stw_p99);
             ] );
         ("inc", Telemetry.Json.Obj inc_rows);
       ]);
  print_newline ()

(* --- observability: flight recorder, event stream, phase tracing,
   census (BENCH_9.json) --------------------------------------------------- *)

(* The observability plane's acceptance run.  A bombardment streams
   windowed JSON lines and fills the service flight recorder; the
   summary gates on (a) the per-phase identity — queue_wait + build +
   vm = end-to-end latency, exactly, for every completion; (b) zero
   dropped ring events at the default capacity; (c) a burn rate on
   every window line; (d) the dump validating under the trace checker;
   (e) the pause metric responding to the budget sweep while tick
   latency stays put; and (f) cycles bit-identical with the full plane
   attached (recorder + metrics + census). *)

let bench9_data : (string * Telemetry.Json.t) list ref = ref []

let record9 key v = bench9_data := (key, v) :: !bench9_data

let write_bench9_json () =
  if !bench9_data <> [] then begin
    let doc = Telemetry.Json.Obj (List.rev !bench9_data) in
    Out_channel.with_open_text "BENCH_9.json" (fun oc ->
        Out_channel.output_string oc (Telemetry.Json.to_string doc ^ "\n"));
    Printf.printf "wrote BENCH_9.json\n"
  end

let observability () =
  print_endline
    "== Observability: flight recorder, event stream, phase tracing, census \
     ==";
  let machine = Machine.Machdesc.sparc10 in
  let counter snap name =
    match Telemetry.Metrics.find snap name with
    | Some (Telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  (* the bombardment: stream + ring under generated traffic *)
  print_endline "-- bombardment: event stream and flight-recorder ring";
  let windows = ref 0 and events = ref 0 and burn_missing = ref 0 in
  let t =
    Service.Gcsafed.create
      ~events:(fun line ->
        match Telemetry.Json.member "type" line with
        | Some (Telemetry.Json.Str "window") ->
            incr windows;
            if Telemetry.Json.member "burn_rate" line = None then
              incr burn_missing
        | Some (Telemetry.Json.Str "event") -> incr events
        | _ -> ())
      Service.Gcsafed.default_config
  in
  List.iter
    (fun (arrival, req) -> Service.Gcsafed.submit ~arrival t req)
    (Service.Trafficgen.generate
       {
         Service.Trafficgen.default_spec with
         Service.Trafficgen.g_requests = 120;
         g_seed = 3;
         g_mix = Service.Trafficgen.Generated;
         g_chaos_percent = 20;
       });
  Service.Gcsafed.shutdown t;
  let ring = Service.Gcsafed.recorder t in
  let dropped = Telemetry.Flight_recorder.dropped ring in
  let dump_valid =
    Telemetry.Flight_recorder.check (Service.Gcsafed.dump t) = Ok ()
  in
  let phase_sum_ok =
    List.for_all
      (fun c ->
        c.Service.Gcsafed.r_queue_wait + c.Service.Gcsafed.r_build_ticks
        + c.Service.Gcsafed.r_vm_ticks
        = c.Service.Gcsafed.r_finish - c.Service.Gcsafed.r_arrival)
      (Service.Gcsafed.completions t)
  in
  Printf.printf
    "  %d window line(s), %d event line(s), %d dropped, dump %s, phase \
     identity %s\n"
    !windows !events dropped
    (if dump_valid then "valid" else "INVALID")
    (if phase_sum_ok then "exact" else "BROKEN");
  record9 "events"
    (Telemetry.Json.Obj
       [
         ("windows", Telemetry.Json.Int !windows);
         ("events", Telemetry.Json.Int !events);
         ("recorded", Telemetry.Json.Int (Telemetry.Flight_recorder.recorded ring));
         ("dropped", Telemetry.Json.Int dropped);
         ("burn_rate_present", Telemetry.Json.Bool (!burn_missing = 0));
         ("dump_valid", Telemetry.Json.Bool dump_valid);
       ]);
  record9 "phase_sum_ok" (Telemetry.Json.Bool phase_sum_ok);
  (* the budget sweep: per-phase breakdown and the responding pause
     metric over the paper workloads *)
  print_endline "-- per-phase latency and worst pause per --gc-pause-budget";
  let budgets = [ 64; 256; 1024; 4096 ] in
  let sweep budget =
    let t = Service.Gcsafed.create Service.Gcsafed.default_config in
    List.iteri
      (fun i w ->
        Service.Gcsafed.submit ~arrival:(i * 1000) t
          (Harness.Request.make ~label:w.Workloads.Registry.w_name
             ~config:Harness.Build.Safe ~machine ~gc_mode:Gcheap.Heap.Inc
             ~gc_pause_budget:budget ~gc_threshold:16384
             w.Workloads.Registry.w_source))
      Workloads.Registry.paper_suite;
    Service.Gcsafed.shutdown t;
    let rp = Service.Gcsafed.report t in
    if rp.Service.Gcsafed.rp_unexpected > 0 then
      failwith "unexpected outcome in the observability budget sweep";
    rp
  in
  let rows =
    List.map
      (fun budget ->
        let rp = sweep budget in
        Printf.printf
          "  budget %5d: queue_wait %d  build %d  vm %d  (latency %d)  max \
           pause %5d words  burn %.3f\n"
          budget rp.Service.Gcsafed.rp_queue_wait
          rp.Service.Gcsafed.rp_build_ticks rp.Service.Gcsafed.rp_vm_ticks
          rp.Service.Gcsafed.rp_total_latency
          rp.Service.Gcsafed.rp_gc_max_pause_words
          (Service.Gcsafed.burn_rate rp);
        (budget, rp))
      budgets
  in
  let pauses =
    List.map (fun (_, rp) -> rp.Service.Gcsafed.rp_gc_max_pause_words) rows
  in
  let latencies =
    List.map (fun (_, rp) -> rp.Service.Gcsafed.rp_total_latency) rows
  in
  let pause_responds = List.length (List.sort_uniq compare pauses) >= 2 in
  let latency_invariant =
    List.length (List.sort_uniq compare latencies) = 1
  in
  if not pause_responds then
    failwith "worst pause did not respond to the budget sweep";
  if not latency_invariant then
    failwith "tick latency moved across pause budgets (ablation hazard)";
  record9 "budgets"
    (Telemetry.Json.Obj
       (List.map
          (fun (budget, rp) ->
            ( string_of_int budget,
              Telemetry.Json.Obj
                [
                  ( "queue_wait_ticks",
                    Telemetry.Json.Int rp.Service.Gcsafed.rp_queue_wait );
                  ( "build_ticks",
                    Telemetry.Json.Int rp.Service.Gcsafed.rp_build_ticks );
                  ("vm_ticks", Telemetry.Json.Int rp.Service.Gcsafed.rp_vm_ticks);
                  ( "total_latency",
                    Telemetry.Json.Int rp.Service.Gcsafed.rp_total_latency );
                  ( "gc_max_pause_words",
                    Telemetry.Json.Int rp.Service.Gcsafed.rp_gc_max_pause_words
                  );
                  ( "gc_total_pause_words",
                    Telemetry.Json.Int
                      rp.Service.Gcsafed.rp_gc_total_pause_words );
                  ( "burn_rate",
                    Telemetry.Json.Float (Service.Gcsafed.burn_rate rp) );
                ] ))
          rows));
  record9 "pause_responds" (Telemetry.Json.Bool pause_responds);
  record9 "latency_budget_invariant" (Telemetry.Json.Bool latency_invariant);
  (* ablation: the full plane attached must not move a cycle *)
  print_endline "-- ablation: cycles with the full plane attached";
  let identical =
    List.for_all
      (fun w ->
        let req =
          Harness.Request.make ~config:Harness.Build.Safe ~machine
            ~gc_threshold:16384 w.Workloads.Registry.w_source
        in
        let b =
          Harness.Build.compile
            ~options:(Harness.Request.build_options req)
            Harness.Build.Safe w.Workloads.Registry.w_source
        in
        let run ?telemetry ?census () =
          match Harness.Measure.exec ?telemetry ?census req b with
          | Harness.Measure.Ran r -> r.Harness.Measure.o_cycles
          | o -> failwith (Harness.Measure.describe o)
        in
        let off = run () in
        let recorder = Telemetry.Flight_recorder.create () in
        let metrics = Telemetry.Metrics.create () in
        let on_ =
          run
            ~telemetry:(Telemetry.Sink.make ~metrics ~recorder ())
            ~census:true ()
        in
        Printf.printf "  %-10s %d cycles %s\n" w.Workloads.Registry.w_name off
          (if off = on_ then "(identical)" else "(PERTURBED)");
        ignore (counter (Telemetry.Metrics.snapshot metrics) "vm/steps");
        off = on_)
      Workloads.Registry.paper_suite
  in
  if not identical then failwith "observability plane perturbed execution";
  record9 "ablation"
    (Telemetry.Json.Obj [ ("identical", Telemetry.Json.Bool identical) ]);
  print_newline ()

(* --- stress: sanitizer overhead and schedule-divergence scan ------------- *)

let stress () =
  print_endline "== Stress: heap-integrity sanitizer and injected schedules ==";
  print_endline
    "-- sanitizer wall-clock overhead (safe build, collection every 2000 \
     instrs)";
  List.iter
    (fun w ->
      let req0 =
        Harness.Request.make ~config:Harness.Build.Safe
          ~schedule:(Machine.Schedule.Every 2000)
          w.Workloads.Registry.w_source
      in
      let b =
        Harness.Build.compile
          ~options:(Harness.Request.build_options req0)
          Harness.Build.Safe w.Workloads.Registry.w_source
      in
      let timed check_integrity =
        let t0 = Sys.time () in
        (match
           Harness.Measure.exec
             { req0 with Harness.Request.check_integrity }
             b
         with
        | Harness.Measure.Ran _ -> ()
        | o -> failwith (Harness.Measure.describe o));
        Sys.time () -. t0
      in
      let off = timed false in
      let on_ = timed true in
      Printf.printf "  %-10s %6.3fs off  %6.3fs on  (x%.1f)\n"
        w.Workloads.Registry.w_name off on_
        (on_ /. (off +. 1e-9)))
    Workloads.Registry.paper_suite;
  print_endline
    "-- schedule-divergence scan (sampled every-N schedules, sparc10)";
  List.iter
    (fun w ->
      let target = Stress.Corpus.of_workload w in
      let plan =
        {
          Stress.Driver.default_plan with
          Stress.Driver.p_matrix =
            {
              Harness.Request.default_matrix with
              Harness.Request.m_machines = [ Machine.Machdesc.sparc10 ];
            };
        }
      in
      let findings, subjects, runs = Stress.Driver.run_target plan target in
      Printf.printf "  %-10s %d subject(s), %d run(s): %d finding(s), %d unexpected\n"
        w.Workloads.Registry.w_name subjects runs (List.length findings)
        (List.length
           (List.filter (fun f -> not f.Stress.Driver.f_expected) findings));
      List.iter
        (fun f ->
          Printf.printf "    %s %s: %s\n"
            (Stress.Driver.kind_name f.Stress.Driver.f_kind)
            f.Stress.Driver.f_subject f.Stress.Driver.f_detail)
        findings)
    Workloads.Registry.paper_suite;
  print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let sections =
    match args with
    | [] | [ "all" ] ->
        [
          "t1"; "t2"; "t3"; "t4"; "t5"; "cache"; "a1"; "hazard"; "ablate";
          "ablate-analysis"; "ablate-telemetry"; "profile"; "gcmodes";
          "nursery"; "resilience"; "incremental"; "observability";
        ]
    | args -> args
  in
  List.iter
    (fun name ->
      let section =
        match name with
        | "t1" -> Some t1
        | "t2" -> Some t2
        | "t3" -> Some t3
        | "t4" -> Some t4
        | "t5" -> Some t5
        | "cache" -> Some cache_section
        | "a1" -> Some a1
        | "hazard" -> Some hazard
        | "ablate" -> Some ablate
        | "ablate-analysis" -> Some ablate_analysis
        | "ablate-telemetry" -> Some ablate_telemetry
        | "profile" -> Some profile_section
        | "gcmodes" -> Some gcmodes
        | "nursery" -> Some nursery_section
        | "resilience" -> Some resilience
        | "incremental" -> Some incremental
        | "observability" -> Some observability
        | "stress" -> Some stress
        | "micro" -> Some micro
        | s ->
            Printf.eprintf "unknown section %s\n" s;
            None
      in
      Option.iter (timed_section name) section)
    sections;
  write_bench_json ();
  write_bench5_json ();
  write_bench6_json ();
  write_bench10_json ();
  write_bench8_json ();
  write_bench9_json ()
