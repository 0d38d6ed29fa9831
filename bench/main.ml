(* Bechamel micro-benchmarks of the collector primitives, including the
   page-map vs splay-tree [same_obj] contrast with Jones & Kelly: the one
   wall-clock piece of the evaluation.

   Usage:  main.exe

   Every deterministic number (the paper's tables, the analysis ablation
   and the ablations of the paper's optimizations) comes from
   [gcsafec tables --machine M]; the collector gates (pause percentiles,
   budget overruns, OOM recovery margins, observability) are tier-1
   tests under test/. *)

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
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (it takes no arguments)";
    exit 2
  end;
  micro ()
