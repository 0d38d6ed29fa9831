(* The incremental SATB marker: snapshot-reachability survives
   arbitrarily-sliced cycles with barriered mutations, cycles terminate
   under any budget, the store barrier and allocate-black behave as
   specified, and the three collector modes agree bit-for-bit on
   program outputs under schedule sweeps. *)

open Gcheap

(* --- a model mutator over a standalone heap --------------------------- *)

(* Objects are [slots] pointer fields; a register file of [nregs] cells
   plays the VM's barrier-free roots.  Mutations only move values the
   mutator could actually see — register contents and values loaded
   from registered objects — through the same barriered store path the
   VM uses, so every scenario the generator produces is one a real
   mutator could reach. *)

let slots = 4

let nregs = 4

let slot_addr obj k = obj + (8 * k)

let read_slot h obj k = Mem.load_word h.Heap.mem (slot_addr obj k)

let write_slot h obj k v =
  Heap.note_store h (slot_addr obj k) 8;
  Mem.store_word h.Heap.mem (slot_addr obj k) v

(* Reachability over the OCaml-side mirror of the object graph. *)
let reachable mirror roots =
  let seen = Hashtbl.create 64 in
  let rec go a =
    if a <> 0 && (not (Hashtbl.mem seen a)) && Hashtbl.mem mirror a then begin
      Hashtbl.add seen a ();
      Array.iter go (Hashtbl.find mirror a)
    end
  in
  List.iter go roots;
  seen

let op =
  QCheck.(
    oneof
      [
        map (fun r -> `Alloc r) (int_bound (nregs - 1));
        map
          (fun (r1, r2) -> `Mov (r1, r2))
          (pair (int_bound (nregs - 1)) (int_bound (nregs - 1)));
        map
          (fun (r1, r2, k) -> `Load (r1, r2, k))
          (triple
             (int_bound (nregs - 1))
             (int_bound (nregs - 1))
             (int_bound (slots - 1)));
        map
          (fun (r1, r2, k) -> `Store (r1, r2, k))
          (triple
             (int_bound (nregs - 1))
             (int_bound (nregs - 1))
             (int_bound (slots - 1)));
        map (fun b -> `Step b) (int_bound 300);
      ])

let prop_satb_superset =
  QCheck.Test.make ~count:120
    ~name:"SATB: cycle-start reachable set survives arbitrary slicing"
    (QCheck.list_of_size (QCheck.Gen.int_range 10 150) op)
    (fun ops ->
      let h =
        Heap.create ~config:{ Heap.default_config with Heap.mode = Heap.Inc } ()
      in
      let regs = Array.make nregs 0 in
      let mirror = Hashtbl.create 64 in
      let snapshot = ref [] in
      let in_cycle = ref false in
      let roots () = Array.to_list regs in
      let check_complete () =
        in_cycle := false;
        List.iter
          (fun a ->
            if Heap.base_of h a <> Some a then
              QCheck.Test.fail_reportf
                "object %#x reachable at cycle start was collected" a)
          !snapshot;
        match Heap.check_integrity h with
        | [] -> ()
        | vs ->
            QCheck.Test.fail_reportf "heap integrity: %s"
              (String.concat "; "
                 (List.map
                    (fun v -> Format.asprintf "%a" Heap.pp_violation v)
                    vs))
      in
      List.iter
        (fun operation ->
          match operation with
          | `Alloc r ->
              let a = Heap.alloc h (8 * slots) in
              Hashtbl.replace mirror a (Array.make slots 0);
              regs.(r) <- a
          | `Mov (r1, r2) -> regs.(r1) <- regs.(r2)
          | `Load (r1, r2, k) ->
              if Hashtbl.mem mirror regs.(r2) then
                regs.(r1) <- read_slot h regs.(r2) k
          | `Store (r1, r2, k) ->
              if Hashtbl.mem mirror regs.(r2) then begin
                write_slot h regs.(r2) k regs.(r1);
                (Hashtbl.find mirror regs.(r2)).(k) <- regs.(r1)
              end
          | `Step b ->
              h.Heap.config <-
                { h.Heap.config with Heap.pause_budget_words = max 1 b };
              if not (Heap.active h) then begin
                (* this step takes the snapshot: record what is
                   reachable right now *)
                let seen = reachable mirror (roots ()) in
                snapshot := Hashtbl.fold (fun a () acc -> a :: acc) seen [];
                in_cycle := true
              end;
              ignore (Heap.step ~extra_roots:[ Array.of_list (roots ()) ] h);
              if !in_cycle && not (Heap.active h) then
                check_complete ())
        ops;
      if Heap.active h then begin
        Heap.finish ~extra_roots:[ Array.of_list (roots ()) ] h;
        check_complete ()
      end;
      true)

(* --- the SATB barrier, pointwise -------------------------------------- *)

(* A stop-the-world heap driven by hand, one word of work per step. *)
let fresh () =
  Heap.create
    ~config:{ Heap.default_config with Heap.pause_budget_words = 1 }
    ()

(* Drive the in-flight cycle to completion, one tiny step at a time,
   guarding against non-termination. *)
let finish_counted ?(cap = 1_000_000) h ~extra_roots =
  let steps = ref 0 in
  while Heap.active h do
    incr steps;
    if !steps > cap then Alcotest.fail "incremental cycle does not terminate";
    ignore (Heap.step ~extra_roots h)
  done;
  !steps

let test_barrier_keeps_overwritten_alive () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let b = Heap.alloc h 16 in
  write_slot h a 0 b;
  (* snapshot: only [a] is a root; [b] reachable through it *)
  ignore (Heap.step ~extra_roots:[ [| a |] ] h);
  Alcotest.(check bool) "cycle in flight" true (Heap.active h);
  (* sever the only link mid-cycle: the barrier must gray the old value *)
  write_slot h a 0 0;
  Alcotest.(check bool) "barrier fired" true
    (h.Heap.stats.Heap.barrier_grays >= 1);
  ignore (finish_counted h ~extra_roots:[ [| a |] ]);
  Alcotest.(check (option int)) "snapshot object survives its cycle" (Some b)
    (Heap.base_of h b);
  (* the next cycle sees it unreachable and reclaims it *)
  ignore (Heap.step ~extra_roots:[ [| a |] ] h);
  ignore (finish_counted h ~extra_roots:[ [| a |] ]);
  Alcotest.(check (option int)) "floating garbage dies next cycle" None
    (Heap.base_of h b)

let test_allocate_black () =
  let h = fresh () in
  let root = Heap.alloc h 16 in
  ignore (Heap.step ~extra_roots:[ [| root |] ] h);
  (* allocated mid-cycle, never stored anywhere: born black *)
  let tmp = Heap.alloc h 16 in
  ignore (finish_counted h ~extra_roots:[ [| root |] ]);
  Alcotest.(check (option int)) "mid-cycle allocation survives" (Some tmp)
    (Heap.base_of h tmp);
  ignore (Heap.step ~extra_roots:[ [| root |] ] h);
  ignore (finish_counted h ~extra_roots:[ [| root |] ]);
  Alcotest.(check (option int)) "and dies the following cycle" None
    (Heap.base_of h tmp)

let test_tiny_budget_terminates () =
  let h = fresh () in
  let keep = ref [] in
  for i = 0 to 199 do
    let a = Heap.alloc h 24 in
    (* keep two of every three; the rest is garbage for the sweep *)
    if i mod 3 <> 0 then keep := a :: !keep
  done;
  ignore (Heap.step ~extra_roots:[ Array.of_list !keep ] h);
  let steps = finish_counted h ~extra_roots:[ Array.of_list !keep ] in
  Alcotest.(check bool) "word-at-a-time cycle really is sliced" true
    (steps > 10);
  List.iter
    (fun a ->
      Alcotest.(check (option int)) "kept object survives" (Some a)
        (Heap.base_of h a))
    !keep;
  Alcotest.(check int) "garbage reclaimed" 67
    h.Heap.stats.Heap.objects_freed;
  Alcotest.(check int) "integrity clean" 0
    (List.length (Heap.check_integrity h))

let test_full_collection_abandons_soundly () =
  let h = fresh () in
  let root = Heap.alloc h 16 in
  ignore (Heap.step ~extra_roots:[ [| root |] ] h);
  Alcotest.(check bool) "cycle in flight" true (Heap.active h);
  (* an emergency/explicit/forced collection lands mid-cycle *)
  ignore (Heap.collect ~extra_roots:[ [| root |] ] h);
  Alcotest.(check bool) "cycle abandoned" false (Heap.active h);
  Alcotest.(check int) "abandon counted" 1
    h.Heap.stats.Heap.abandoned_cycles;
  Alcotest.(check (option int)) "root survives the full collection"
    (Some root) (Heap.base_of h root);
  Alcotest.(check int) "integrity clean" 0
    (List.length (Heap.check_integrity h))

(* --- one engine: stop-the-world and incremental cycles agree --------- *)

(* A random pointer graph: objects (requested bytes, atomic?), pointer
   edges (source, field, target, interior offset), word-value roots, the
   objects an uncollectable statics-like block points at, the
   interior-pointer mode, and the pause budget of the incremental run. *)
type graph = {
  objs : (int * bool) list;
  edges : (int * int * int * int) list;
  root_ids : int list;
  static_ids : int list;
  all_interior : bool;
  budget : int;
}

let graph_gen =
  QCheck.Gen.(
    int_range 1 60 >>= fun n ->
    let id = int_bound (n - 1) in
    let size = frequency [ (9, int_range 8 300); (1, int_range 2048 5000) ] in
    map
      (fun ((objs, edges, root_ids), (static_ids, all_interior, budget)) ->
        { objs; edges; root_ids; static_ids; all_interior; budget })
      (pair
         (triple
            (list_repeat n (pair size bool))
            (list_size (int_bound (3 * n)) (quad id nat id nat))
            (list_size (int_bound 4) id))
         (triple
            (list_size (int_bound 3) id)
            bool
            (oneof [ int_range 1 7; return 1024; int_range 8 4096 ]))))

let print_graph g =
  Printf.sprintf
    "objs=[%s] edges=[%s] roots=[%s] statics=[%s] all_interior=%b budget=%d"
    (String.concat ";"
       (List.map (fun (b, a) -> Printf.sprintf "%d%s" b (if a then "a" else ""))
          g.objs))
    (String.concat ";"
       (List.map
          (fun (s, f, d, o) -> Printf.sprintf "%d.%d->%d+%d" s f d o)
          g.edges))
    (String.concat ";" (List.map string_of_int g.root_ids))
    (String.concat ";" (List.map string_of_int g.static_ids))
    g.all_interior g.budget

(* Lay the graph out on a fresh heap; returns the heap and its roots.
   Allocation is deterministic, so two builds are twins. *)
let build_graph g =
  let h =
    Heap.create
      ~config:
        {
          Heap.default_config with
          Heap.all_interior = g.all_interior;
          pause_budget_words = g.budget;
        }
      ()
  in
  let objs =
    Array.of_list
      (List.map
         (fun (bytes, atomic) ->
           let kind = if atomic then Block.Atomic else Block.Normal in
           (Heap.alloc ~kind h bytes, bytes))
         g.objs)
  in
  let statics =
    Heap.alloc ~kind:Block.Uncollectable h (8 * max 1 (List.length g.static_ids))
  in
  List.iteri
    (fun k i -> Mem.store_word h.Heap.mem (statics + (8 * k)) (fst objs.(i)))
    g.static_ids;
  List.iter
    (fun (s, f, d, off) ->
      let src, src_bytes = objs.(s) and dst, dst_bytes = objs.(d) in
      Mem.store_word h.Heap.mem
        (src + (8 * (f mod (src_bytes / 8))))
        (dst + (off mod dst_bytes)))
    g.edges;
  (h, List.map (fun i -> fst objs.(i)) g.root_ids)

let engine_fingerprint h =
  let s = h.Heap.stats in
  let free_lists =
    Array.to_list (Array.mapi (fun k l -> (k, !l)) h.Heap.free_lists)
    |> List.filter (fun (_, l) -> l <> [])
  in
  ( (s.Heap.words_scanned, s.Heap.objects_freed, s.Heap.bytes_freed),
    free_lists,
    Heap.live_summary h )

let prop_collect_equals_cycle =
  QCheck.Test.make ~count:300
    ~name:"twin heaps: collect == incremental cycle at any budget"
    (QCheck.make ~print:print_graph graph_gen)
    (fun g ->
      let stw, roots = build_graph g in
      ignore (Heap.collect ~extra_roots:[ Array.of_list roots ] stw);
      let inc, roots = build_graph g in
      ignore (Heap.step ~extra_roots:[ Array.of_list roots ] inc);
      Heap.finish ~extra_roots:[ Array.of_list roots ] inc;
      engine_fingerprint stw = engine_fingerprint inc)

(* One alloc/drop script on a stop-the-world and an incremental heap,
   the one collecting and the other finishing a cycle at the same
   points: an incremental heap has no nursery and allocates exactly like
   a stop-the-world one (free list first, then the bump cursor), so the
   two hand out the same addresses, collectable, atomic and large. *)
let test_stw_inc_same_addresses () =
  let run mode collect =
    let h = Heap.create ~config:{ Heap.default_config with Heap.mode } () in
    let rng = Random.State.make [| 35 |] in
    let live = ref [] and addrs = ref [] in
    for i = 1 to 2000 do
      let bytes =
        if Random.State.int rng 40 = 0 then 2048 + Random.State.int rng 6000
        else 1 + Random.State.int rng 300
      in
      let kind = if i mod 5 = 0 then Block.Atomic else Block.Normal in
      let a = Heap.alloc ~kind h bytes in
      addrs := a :: !addrs;
      (* keep about half, and drop a third of what is kept now and then *)
      if Random.State.bool rng then live := a :: !live;
      if i mod 97 = 0 then begin
        live := List.filteri (fun k _ -> k mod 3 <> 0) !live;
        collect h [ Array.of_list !live ]
      end
    done;
    List.rev !addrs
  in
  let stw =
    run Heap.Stw (fun h extra_roots -> ignore (Heap.collect ~extra_roots h))
  in
  let inc =
    run Heap.Inc (fun h extra_roots ->
        ignore (Heap.step ~extra_roots h);
        Heap.finish ~extra_roots h)
  in
  Alcotest.(check (list int)) "address sequences" stw inc

(* --- mode identity over random programs ------------------------------- *)

let digest gc_mode ~budget ~schedule src =
  let req =
    Harness.Request.make ~config:Harness.Build.Safe ~gc_mode
      ~gc_pause_budget:budget ~schedule ~check_integrity:true
      ~final_collect:true src
  in
  let b =
    Harness.Build.compile
      ~options:(Harness.Request.build_options req)
      Harness.Build.Safe src
  in
  match Harness.Measure.exec req b with
  | Harness.Measure.Ran r ->
      Printf.sprintf "%s|exit=%d|live=%d/%d" r.Harness.Measure.o_output
        r.Harness.Measure.o_exit r.Harness.Measure.o_live_objects
        r.Harness.Measure.o_live_bytes
  | o -> "<" ^ Harness.Measure.describe o ^ ">"

let prop_modes_identical =
  QCheck.Test.make ~count:20
    ~name:"random programs: stw == gen == inc under schedule sweeps"
    Testgen.arbitrary_program
    (fun src ->
      List.for_all
        (fun schedule ->
          let base = digest Gcheap.Heap.Stw ~budget:64 ~schedule src in
          digest Gcheap.Heap.Gen ~budget:64 ~schedule src = base
          && digest Gcheap.Heap.Inc ~budget:64 ~schedule src = base
          && digest Gcheap.Heap.Inc ~budget:7 ~schedule src = base)
        [
          Machine.Schedule.Auto;
          Machine.Schedule.Every 3;
          Machine.Schedule.Every 17;
          Machine.Schedule.At_allocs;
        ])

(* --- the paper workloads under a 2048-word budget -------------------- *)

(* Only a cycle's two atomic fences, the root snapshot and mark
   finalization, may overrun a budget; the largest atomic root scan in
   the suite (gs) is ~1.1k words, so from 2048 up every increment fits.
   At 2048, on every paper workload at the gate configuration (safe,
   sparc10, threshold 16384, final collection), no increment overruns
   and the output equals stop-the-world's.  Through gcsafed, where the
   budget is each request's pause SLO, all four requests meet it. *)
let test_paper_workloads_within_budget () =
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      let name = w.Workloads.Registry.w_name in
      let stw, _ = Util.gate_run Heap.Stw w in
      let inc, snap = Util.gate_run ~gc_pause_budget:2048 Heap.Inc w in
      Alcotest.(check string)
        (name ^ ": incremental output = stop-the-world output")
        stw.Harness.Measure.o_output inc.Harness.Measure.o_output;
      Alcotest.(check bool) (name ^ ": increments ran") true
        (Util.counter snap "vm/gc/incremental/increments" > 0);
      Alcotest.(check int) (name ^ ": budget overruns at 2048 words") 0
        (Util.counter snap "vm/gc/incremental/budget_overruns"))
    Workloads.Registry.paper_suite;
  let rp = Service.Gcsafed.report (Util.serve_paper_suite ~budget:2048) in
  Alcotest.(check int) "gcsafed: SLO met by all four" 4
    rp.Service.Gcsafed.rp_slo_met;
  Alcotest.(check int) "gcsafed: SLO violated" 0
    rp.Service.Gcsafed.rp_slo_violated

let suite =
  [
    QCheck_alcotest.to_alcotest prop_satb_superset;
    Alcotest.test_case "barrier keeps overwritten value alive" `Quick
      test_barrier_keeps_overwritten_alive;
    Alcotest.test_case "allocation during a cycle is black" `Quick
      test_allocate_black;
    Alcotest.test_case "budget-1 cycle terminates and sweeps" `Quick
      test_tiny_budget_terminates;
    Alcotest.test_case "full collection abandons the cycle" `Quick
      test_full_collection_abandons_soundly;
    QCheck_alcotest.to_alcotest prop_collect_equals_cycle;
    QCheck_alcotest.to_alcotest prop_modes_identical;
    Alcotest.test_case "paper workloads: no overruns at a 2048-word budget"
      `Quick test_paper_workloads_within_budget;
    Alcotest.test_case "stop-the-world and incremental hand out one address \
                        sequence" `Quick test_stw_inc_same_addresses;
  ]
