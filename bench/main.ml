(* The two evaluation pieces no gcsafec subcommand prints: the ablations
   of the paper's optimizations (1)-(4), and bechamel micro-benchmarks of
   the collector primitives, including the page-map vs splay-tree
   [same_obj] contrast with Jones & Kelly.

   Usage:  main.exe [ablate|micro]...
   With no arguments only ablate runs: micro does wall-clock timing, so
   it is opt-in and the default output stays deterministic.

   The paper's tables come from [gcsafec tables --machine M]; the
   collector gates (pause percentiles, budget overruns, OOM recovery
   margins, observability) are tier-1 tests under test/. *)

(* one-shot: build a request's configuration and execute it *)
let exec_req (req : Harness.Request.t) =
  let b =
    Harness.Build.compile
      ~options:(Harness.Request.build_options req)
      req.Harness.Request.config req.Harness.Request.source
  in
  Harness.Measure.exec req b

(* --- ablations ----------------------------------------------------------- *)

let count_keep_lives ~suppress_copies src =
  let ast = Csyntax.Parser.parse_program src in
  let opts =
    { (Gcsafe.Mode.default Gcsafe.Mode.Safe) with Gcsafe.Mode.suppress_copies }
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
      let with1 = count_keep_lives ~suppress_copies:true src in
      let without1 = count_keep_lives ~suppress_copies:false src in
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
    let roots = [ Array.init 64 (fun i -> Gcheap.Heap.alloc h2 (24 + i)) ] in
    Test.make ~name:"full collection (64 live objects)"
      (Staged.stage (fun () ->
           ignore (Gcheap.Heap.collect ~extra_roots:roots h2)))
  in
  (* the post-collection sanitizer on the heap a small VM run holds:
     statics, the stack block and two small size classes *)
  let test_integrity =
    let h3 = Gcheap.Heap.create () in
    ignore (Gcheap.Heap.alloc ~kind:Gcheap.Block.Uncollectable h3 200);
    ignore (Gcheap.Heap.alloc ~kind:Gcheap.Block.Stack h3 (256 * 1024));
    let roots = [| Gcheap.Heap.alloc h3 16; Gcheap.Heap.alloc h3 40 |] in
    ignore (Gcheap.Heap.collect ~extra_roots:[ roots ] h3);
    Test.make ~name:"check_integrity (VM-shaped heap)"
      (Staged.stage (fun () -> ignore (Gcheap.Heap.check_integrity h3)))
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
    [
      test_alloc;
      test_base;
      test_same_obj;
      test_splay_same_obj;
      test_collect;
      test_integrity;
    ];
  print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let sections = if args = [] then [ "ablate" ] else args in
  List.iter
    (function
      | "ablate" -> ablate ()
      | "micro" -> micro ()
      | s -> Printf.eprintf "unknown section %s\n" s)
    sections
