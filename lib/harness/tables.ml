(** Rendering of the paper's tables (T1-T5), the analysis ablation (A5)
    and the ablations of the paper's optimizations (A3) from fresh
    measurements.

    Each function recomputes the whole column set for the given machine and
    prints rows in the paper's layout.  T1-T5 and A5 return the raw
    numbers so the tests can assert on shapes ("who wins, by roughly what
    factor").

    Measurement and rendering are separate phases: rows are measured
    (optionally fanned out over a {!Exec.Pool.t} — builds go through the
    process-wide artifact cache either way) and only then printed, so
    parallel regeneration is byte-identical to serial. *)

(* build + execute one request; a table point is exactly a request
   (config, machine, analysis), so the constructor is the cell's name *)
let measure_request (req : Request.t) =
  let b =
    Build.compile
      ~options:(Request.build_options req)
      req.Request.config req.Request.source
  in
  (b, Measure.exec req b)

(* The one percentage cell: [num] over [den], rounded to [decimals]
   places, signed when [signed] ("12%", "+21.35%"). *)
let percent ?(decimals = 0) ?(signed = false) num den =
  let p = 100.0 *. float_of_int num /. float_of_int den in
  if signed then Printf.sprintf "%+.*f%%" decimals p
  else Printf.sprintf "%.*f%%" decimals p

(* The one table layout: a title line, then a header row and one row per
   label, the label in 10 columns and each cell in 14. *)
let pp_table out title header rows =
  Format.fprintf out "%s:@." title;
  List.iter
    (fun (label, cells) ->
      Format.fprintf out "  %-10s" label;
      List.iter (Format.fprintf out "%-14s") cells;
      Format.fprintf out "@.")
    (("", header) :: rows)

type cell = { c_config : Build.config; c_outcome : Measure.outcome }

type row = {
  r_workload : string;
  r_base : Measure.outcome;
  r_cells : cell list;
}

let measure_row ?(machine = Machine.Machdesc.sparc10) ~configs
    (w : Workloads.Registry.workload) : row =
  let src = w.Workloads.Registry.w_source in
  let _, base = measure_request (Request.make ~config:Build.Base ~machine src) in
  let cells =
    List.map
      (fun config ->
        let _, o = measure_request (Request.make ~config ~machine src) in
        { c_config = config; c_outcome = o })
      configs
  in
  { r_workload = w.Workloads.Registry.w_name; r_base = base; r_cells = cells }

(** Slowdown tables T1/T2/T3: one machine, columns (-O safe), (-g),
    (-g checked). *)
let slowdown_table ?(machine = Machine.Machdesc.sparc10) ?(out = Format.std_formatter)
    ?(suite = Workloads.Registry.paper_suite) ?(pool = Exec.Pool.serial) () :
    row list =
  let configs = [ Build.Safe; Build.Debug; Build.Debug_checked ] in
  let rows = Exec.Pool.map pool (measure_row ~machine ~configs) suite in
  pp_table out
    (Printf.sprintf "Slowdown vs optimized baseline (%s)"
       machine.Machine.Machdesc.md_name)
    (List.map Build.config_name configs)
    (List.map
       (fun row ->
         let base_cycles = Measure.base_cycles_exn row.r_base in
         ( row.r_workload,
           List.map
             (fun c -> Measure.slowdown_cell ~base_cycles c.c_outcome)
             row.r_cells ))
       rows);
  rows

(** T4: static code size expansion (instruction counts of processed code
    only, as in the paper). *)
let size_table ?(machine = Machine.Machdesc.sparc10) ?(out = Format.std_formatter)
    ?(pool = Exec.Pool.serial) () =
  let configs = [ Build.Safe; Build.Debug; Build.Debug_checked ] in
  let options = Build.for_machine machine in
  let results =
    Exec.Pool.map pool
      (fun w ->
        let base = Build.compile ~options Build.Base w.Workloads.Registry.w_source in
        let sizes =
          List.map
            (fun c ->
              let b = Build.compile ~options c w.Workloads.Registry.w_source in
              (c, b.Build.b_size))
            configs
        in
        (w.Workloads.Registry.w_name, base.Build.b_size, sizes))
      Workloads.Registry.paper_suite
  in
  pp_table out
    (Printf.sprintf "Object code size expansion vs -O (%s)"
       machine.Machine.Machdesc.md_name)
    (List.map Build.config_name configs)
    (List.map
       (fun (name, base_size, sizes) ->
         ( name,
           List.map
             (fun (_, size) -> percent (size - base_size) base_size)
             sizes ))
       results);
  results

(* ------------------------------------------------------------------ *)

type analysis_row = {
  a_workload : string;
  a_keep_lives_none : int;  (** annotations under the paper's algorithm *)
  a_keep_lives_flow : int;  (** annotations surviving the dataflow clients *)
  a_base : Measure.outcome;
  a_safe_none : Measure.outcome;  (** -O safe, analysis off *)
  a_safe_flow : Measure.outcome;  (** -O safe, analysis on *)
}

(** Ablation of the [lib/analysis] dataflow clients: annotation counts
    and -O safe running time with analysis off (the paper's algorithm)
    and on. *)
let analysis_table ?(machine = Machine.Machdesc.sparc10)
    ?(out = Format.std_formatter) ?(suite = Workloads.Registry.paper_suite)
    ?(pool = Exec.Pool.serial) () : analysis_row list =
  let rows =
    Exec.Pool.map pool
      (fun w ->
        let src = w.Workloads.Registry.w_source in
        let _, base =
          measure_request (Request.make ~config:Build.Base ~machine src)
        in
        let bn, safe_none =
          measure_request
            (Request.make ~config:Build.Safe ~machine
               ~analysis:Gcsafe.Mode.A_none src)
        in
        let bf, safe_flow =
          measure_request
            (Request.make ~config:Build.Safe ~machine
               ~analysis:Gcsafe.Mode.A_flow src)
        in
        {
          a_workload = w.Workloads.Registry.w_name;
          a_keep_lives_none = bn.Build.b_keep_lives;
          a_keep_lives_flow = bf.Build.b_keep_lives;
          a_base = base;
          a_safe_none = safe_none;
          a_safe_flow = safe_flow;
        })
      suite
  in
  Format.fprintf out "Dataflow-analysis ablation, -O safe (%s):@."
    machine.Machine.Machdesc.md_name;
  Format.fprintf out "  %-10s%-10s%-10s%-10s%-14s%-14s@." "" "KL(none)"
    "KL(flow)" "pruned" "time(none)" "time(flow)";
  List.iter
    (fun r ->
      let base_cycles = Measure.base_cycles_exn r.a_base in
      Format.fprintf out "  %-10s%-10d%-10d%-10s%-14s%-14s@." r.a_workload
        r.a_keep_lives_none r.a_keep_lives_flow
        (* the pruned share rounds down, as A5 has always printed it *)
        (percent
           (if r.a_keep_lives_none = 0 then 0
            else
              100
              * (r.a_keep_lives_none - r.a_keep_lives_flow)
              / r.a_keep_lives_none)
           100)
        (Measure.slowdown_cell ~base_cycles r.a_safe_none)
        (Measure.slowdown_cell ~base_cycles r.a_safe_flow))
    rows;
  rows

(** T5: residual overhead of safe + peephole postprocessing, time and
    size (the paper measured this on the SPARCstation 10). *)
let postprocessor_table ?(machine = Machine.Machdesc.sparc10)
    ?(out = Format.std_formatter) ?(pool = Exec.Pool.serial) () =
  let results =
    Exec.Pool.map pool
      (fun w ->
        let src = w.Workloads.Registry.w_source in
        let bb, base =
          measure_request (Request.make ~config:Build.Base ~machine src)
        in
        let pb, post =
          measure_request
            (Request.make ~config:Build.Safe_peephole ~machine src)
        in
        (w.Workloads.Registry.w_name, base, post, bb.Build.b_size, pb.Build.b_size))
      Workloads.Registry.paper_suite
  in
  pp_table out
    (Printf.sprintf "Safe + peephole postprocessor vs -O (%s)"
       machine.Machine.Machdesc.md_name)
    [ "running time"; "code size" ]
    (List.map
       (fun (name, base, post, base_size, post_size) ->
         ( name,
           [
             Measure.slowdown_cell
               ~base_cycles:(Measure.base_cycles_exn base)
               post;
             percent (post_size - base_size) base_size;
           ] ))
       results);
  results

(* ------------------------------------------------------------------ *)

(* Optimization (3)'s subject: a string-copy loop whose two bases vary
   slowly. *)
let string_copy_loop =
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

(* KEEP_LIVEs inserted under annotation options [opts] *)
let keep_lives opts src =
  (Gcsafe.Annotate.run ~opts (Csyntax.Parser.parse_program src))
    .Gcsafe.Annotate.keep_live_count

(* the -O build with the pointer-disguising passes off: no [Build.config]
   names it, so it is compiled here and never cached *)
let undisguised_base ~machine src =
  let ast = Csyntax.Parser.parse_program src in
  ignore (Csyntax.Typecheck.check_program ast);
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode ast in
  ignore
    (Opt.Pipeline.run_program
       {
         Opt.Pipeline.default with
         Opt.Pipeline.disguise_pointers = false;
         Opt.Pipeline.nregs = machine.Machine.Machdesc.md_regs;
       }
       irp);
  {
    Build.b_config = Build.Base;
    b_ir = irp;
    b_keep_lives = 0;
    b_size = Ir.Instr.program_size irp;
  }

(** A3: the paper's optimizations (1), (3) and (4) turned off, and what
    the pointer-disguising passes buy.  Annotation counts are the
    paper's algorithm's (analysis none). *)
let ablation_table ?(machine = Machine.Machdesc.sparc10)
    ?(out = Format.std_formatter) ?(pool = Exec.Pool.serial) () =
  let paper = Gcsafe.Mode.default Gcsafe.Mode.Safe in
  let rows =
    Exec.Pool.map pool
      (fun w ->
        let src = w.Workloads.Registry.w_source in
        let req = Request.make ~config:Build.Base ~machine src in
        let _, disguised = measure_request req in
        ( w.Workloads.Registry.w_name,
          keep_lives paper src,
          keep_lives { paper with Gcsafe.Mode.suppress_copies = false } src,
          keep_lives { paper with Gcsafe.Mode.calls_only = true } src,
          Measure.base_cycles_exn disguised,
          Measure.base_cycles_exn
            (Measure.exec req (undisguised_base ~machine src)) ))
      Workloads.Registry.paper_suite
  in
  let loop_cycles ?(heuristic = false) machine config =
    Measure.base_cycles_exn
      (snd
         (measure_request
            (Request.make ~config ~machine ~loop_heuristic:heuristic
               string_copy_loop)))
  in
  let on_off machine config =
    (loop_cycles ~heuristic:true machine config, loop_cycles machine config)
  in
  let base = loop_cycles machine Build.Base in
  let safe = on_off machine Build.Safe in
  let peep = on_off machine Build.Safe_peephole in
  (* the paper's caveat: under register pressure a base kept live across
     the loop occupies a register the loop needs *)
  let pressure = Machine.Machdesc.pentium90 in
  let pressed = on_off pressure Build.Safe_peephole in
  let ints = List.map string_of_int in
  let change ~from c = percent ~decimals:2 ~signed:true (c - from) from in
  Format.fprintf out "Ablations, each optimization on and off (%s):@."
    machine.Machine.Machdesc.md_name;
  pp_table out "(1) no KEEP_LIVE on copies, annotations (analysis none)"
    [ "on"; "off"; "saved" ]
    (List.map
       (fun (name, kl, no_copies, _, _, _) ->
         (name, ints [ kl; no_copies; no_copies - kl ]))
       rows);
  pp_table out
    (Printf.sprintf
       "(3) slowly-varying bases, string-copy loop vs -O (%d cycles)" base)
    [ "on"; "off" ]
    (List.map
       (fun (config, (on, off)) ->
         ( Build.config_id config,
           [ change ~from:base on; change ~from:base off ] ))
       [ (Build.Safe, safe); (Build.Safe_peephole, peep) ]);
  pp_table out
    (Printf.sprintf
       "(3) under register pressure, safe-peep cycles (%d registers)"
       pressure.Machine.Machdesc.md_regs)
    [ "on"; "off" ]
    [ (pressure.Machine.Machdesc.md_name, ints [ fst pressed; snd pressed ]) ];
  pp_table out
    "(4) collections only at call sites, annotations (analysis none)"
    [ "off"; "on"; "fewer" ]
    (List.map
       (fun (name, kl, _, calls_only, _, _) ->
         (name, ints [ kl; calls_only ] @ [ percent (kl - calls_only) kl ]))
       rows);
  pp_table out "Pointer-disguising passes, -O cycles" [ "on"; "off"; "change" ]
    (List.map
       (fun (name, _, _, _, disguised, plain) ->
         (name, ints [ disguised; plain ] @ [ change ~from:plain disguised ]))
       rows)
