(* Stress-subsystem tests: the heap-integrity sanitizer, the VM's
   resource traps and schedule injector, the ddmin shrinker, and the
   differential driver on the known-hazard corpus. *)

open Gcheap

let fresh () = Heap.create ()

(* --- sanitizer: clean heaps report nothing --------------------------- *)

let test_integrity_fresh () =
  Alcotest.(check int) "fresh heap" 0 (List.length (Heap.check_integrity (fresh ())))

let test_integrity_after_use () =
  let h = fresh () in
  let keep = ref [] in
  for i = 0 to 120 do
    let a = Heap.alloc h (8 + (i mod 60)) in
    if i mod 3 = 0 then keep := a :: !keep
  done;
  ignore (Heap.alloc ~kind:Block.Atomic h 100);
  ignore (Heap.alloc h 5000);
  Alcotest.(check int) "used heap" 0 (List.length (Heap.check_integrity h));
  ignore (Heap.collect ~extra_roots:[ Array.of_list !keep ] h);
  Alcotest.(check int) "after collect" 0 (List.length (Heap.check_integrity h));
  ignore (Heap.collect h);
  Alcotest.(check int) "after drop-all" 0 (List.length (Heap.check_integrity h))

(* --- sanitizer: deliberate corruptions are reported ------------------- *)

let block_of h a =
  match Heap.block_at h a with
  | Some b -> b
  | None -> Alcotest.fail "address not mapped"

let rules vs = List.map (fun v -> v.Heap.v_rule) vs

let test_detects_stray_mark () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  ignore (Heap.collect h) (* frees [a]; marks are clear *);
  let blk = block_of h a in
  (match Block.slot_of_addr blk a with
  | Some i -> Block.set_marked blk i true
  | None -> Alcotest.fail "no slot");
  Alcotest.(check bool) "mark-bits rule fires" true
    (List.mem "mark-bits" (rules (Heap.check_integrity h)))

let test_detects_allocated_slot_on_free_list () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  let fl =
    Heap.free_list h blk.Block.blk_obj_size blk.Block.blk_kind
  in
  fl := a :: !fl;
  Alcotest.(check bool) "free-list rule fires" true
    (List.mem "free-list" (rules (Heap.check_integrity h)))

let test_detects_slack_violation () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  (match Block.slot_of_addr blk a with
  | Some i -> blk.Block.blk_req.(i) <- blk.Block.blk_obj_size
  | None -> Alcotest.fail "no slot");
  Alcotest.(check bool) "slack-byte rule fires" true
    (List.mem "slack-byte" (rules (Heap.check_integrity h)))

let fires rule h =
  Alcotest.(check bool) (rule ^ " rule fires") true
    (List.mem rule (rules (Heap.check_integrity h)))

let test_detects_stray_page_map_block () =
  let h = fresh () in
  ignore (Heap.alloc h 16);
  (* a block the page map knows but the heap does not list *)
  let start = Mem.grow_pages h.Heap.mem 1 in
  Page_map.set_block h.Heap.map
    (Block.make ~start ~pages:1 ~obj_size:16 ~count:256 ~kind:Block.Normal);
  fires "page-map" h

(* A block listed twice must not hide a stray of the same size: the
   stray is still reported, and so is the duplicate. *)
let test_detects_stray_beside_duplicate () =
  let h = fresh () in
  let blk = block_of h (Heap.alloc h 16) in
  h.Heap.all_blocks <- blk :: h.Heap.all_blocks;
  let start = Mem.grow_pages h.Heap.mem blk.Block.blk_pages in
  Page_map.set_block h.Heap.map
    (Block.make ~start ~pages:blk.Block.blk_pages ~obj_size:16 ~count:256
       ~kind:Block.Normal);
  let page_map =
    List.filter_map
      (fun v -> if v.Heap.v_rule = "page-map" then Some v.Heap.v_detail else None)
      (Heap.check_integrity h)
  in
  Alcotest.(check (list string)) "page-map details"
    [
      Printf.sprintf "%d stray page(s) registered in the page map"
        blk.Block.blk_pages;
      Printf.sprintf "block %#x is listed twice" blk.Block.blk_start;
    ]
    (List.sort compare page_map)

(* Each free-list finding, with its detail, on a heap whose 32-byte
   block holds one object and, after a sweep, lists the other 127 slots
   in descending address order.  The soundness walk and the completeness
   scan step over runs of slots at once, so the corruptions land inside,
   at the start and at the end of such runs. *)
let test_free_list_findings () =
  let setup ?(h = fresh ()) () =
    let a = Heap.alloc h 16 in
    let blk = block_of h a in
    let size = blk.Block.blk_obj_size in
    for _ = 2 to blk.Block.blk_count do
      ignore (Heap.alloc h 16)
    done;
    ignore (Heap.collect ~extra_roots:[ [| a |] ] h);
    (h, a, Heap.free_list h size Block.Normal, fun i -> a + (i * size))
  in
  let findings h =
    List.filter_map
      (fun v ->
        if v.Heap.v_rule = "free-list" then Some v.Heap.v_detail else None)
      (Heap.check_integrity h)
  in
  let expect name want h = Alcotest.(check (list string)) name want (findings h) in
  let h, _, fl, slot = setup () in
  expect "healthy" [] h;
  fl := List.filter (fun s -> s <> slot 1 && s <> slot 9 && s <> slot 127) !fl;
  expect "dropped slots"
    (List.map
       (fun i -> Printf.sprintf "free slot %#x is on no free list" (slot i))
       [ 1; 9; 127 ])
    h;
  let h, _, fl, slot = setup () in
  fl := List.concat_map (fun s -> if s = slot 5 then [ s; s ] else [ s ]) !fl;
  expect "duplicate in a run"
    [ Printf.sprintf "slot %#x appears on a free list twice" (slot 5) ]
    h;
  let h, _, fl, slot = setup () in
  fl := (slot 5 + 8) :: (slot 5 + 8) :: !fl;
  expect "interior entries"
    [
      Printf.sprintf "entry %#x is not a slot base" (slot 5 + 8);
      Printf.sprintf "slot %#x appears on a free list twice" (slot 5 + 8);
      Printf.sprintf "entry %#x is not a slot base" (slot 5 + 8);
    ]
    h;
  let h, _, fl, _ = setup () in
  fl := 8 :: !fl;
  expect "off the heap" [ "entry 0x8 is not on a heap page" ] h;
  let h, a, fl, _ = setup () in
  fl := a :: !fl;
  expect "allocated" [ Printf.sprintf "allocated slot %#x is on a free list" a ] h;
  let h, _, _, slot = setup () in
  Heap.free_list h 48 Block.Normal := [ slot 5 ];
  expect "wrong class"
    [
      Printf.sprintf "slot %#x appears on a free list twice" (slot 5);
      Printf.sprintf
        "entry %#x on the 48-byte list, but its block holds 32-byte objects"
        (slot 5);
    ]
    h;
  let h, _, _, slot = setup () in
  Heap.free_list h 32 Block.Atomic := [ slot 5 ];
  expect "wrong kind"
    [
      Printf.sprintf "slot %#x appears on a free list twice" (slot 5);
      Printf.sprintf "entry %#x has the wrong block kind" (slot 5);
    ]
    h;
  let h, _, fl, slot =
    setup
      ~h:(Heap.create ~config:{ Heap.default_config with Heap.mode = Heap.Gen } ())
      ()
  in
  fl := [ slot 1 ];
  expect "nursery page"
    [ Printf.sprintf "entry %#x lies on a nursery page" (slot 1) ]
    h

let test_detects_unmapped_page () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  Page_map.clear_block h.Heap.map (block_of h a);
  fires "page-map" h

let test_detects_bad_block_header () =
  let h = fresh () in
  ignore (Heap.alloc h 16);
  let start = Mem.grow_pages h.Heap.mem 1 + 8 in
  let blk =
    Block.make ~start ~pages:1 ~obj_size:16 ~count:255 ~kind:Block.Normal
  in
  Page_map.set_block h.Heap.map blk;
  h.Heap.all_blocks <- blk :: h.Heap.all_blocks;
  fires "block-header" h

let gen_heap () =
  let config =
    {
      Heap.default_config with
      Heap.mode = Heap.Gen;
      minor_threshold = 1024;
    }
  in
  Heap.create ~config ()

let test_detects_nursery_violation () =
  let h = gen_heap () in
  let a = Heap.alloc h 16 in
  Alcotest.(check bool) "allocated on a nursery page" true
    (block_of h a).Block.blk_young;
  h.Heap.young_blocks <- [];
  fires "nursery" h

(* Each cursor finding, with its detail, on a heap whose 32-byte block
   has handed out one slot by its bump cursor: the slots at or past the
   cursor must be unallocated, unmarked and on no free list, and the
   cursor must lie in [0, count].  Slot 1 sits at the cursor, 9 starts
   the second run of eight and 127 is the last slot. *)
let test_cursor_findings () =
  let setup ?(h = fresh ()) () =
    let blk = block_of h (Heap.alloc h 16) in
    Alcotest.(check int) "one slot bumped" 1 blk.Block.blk_bump;
    (h, blk)
  in
  let findings h =
    List.filter_map
      (fun v -> if v.Heap.v_rule = "cursor" then Some v.Heap.v_detail else None)
      (Heap.check_integrity h)
  in
  let expect name want h = Alcotest.(check (list string)) name want (findings h) in
  let in_use ?(cursor = 1) blk i what =
    Printf.sprintf "block %#x: slot %d at or past the bump cursor (%d) is %s"
      blk.Block.blk_start i cursor what
  in
  let h, _ = setup () in
  expect "healthy" [] h;
  let h, blk = setup () in
  List.iter (fun i -> Block.set_allocated blk i true) [ 1; 9; 127 ];
  expect "allocated"
    (List.map (fun i -> in_use blk i "allocated") [ 1; 9; 127 ])
    h;
  let h, blk = setup () in
  Block.set_marked blk 9 true;
  expect "marked" [ in_use blk 9 "marked" ] h;
  let h, blk = setup () in
  let fl = Heap.free_list h blk.Block.blk_obj_size Block.Normal in
  fl := Block.slot_addr blk 127 :: Block.slot_addr blk 1 :: !fl;
  expect "listed"
    [ in_use blk 1 "on a free list"; in_use blk 127 "on a free list" ]
    h;
  let h, blk = setup ~h:(gen_heap ()) () in
  Alcotest.(check bool) "nursery block" true blk.Block.blk_young;
  Block.set_allocated blk 9 true;
  expect "allocated on a nursery page" [ in_use blk 9 "allocated" ] h;
  let h, blk = setup () in
  let count = blk.Block.blk_count in
  blk.Block.blk_bump <- count + 1;
  expect "cursor past the end"
    [ Printf.sprintf "block %#x: bump %d outside [0,%d]" blk.Block.blk_start
        (count + 1) count ]
    h;
  blk.Block.blk_bump <- -1;
  expect "cursor before the start"
    [
      Printf.sprintf "block %#x: bump -1 outside [0,%d]" blk.Block.blk_start
        count;
      in_use ~cursor:0 blk 0 "allocated";
    ]
    h

let test_detects_remembered_set_violation () =
  let h = gen_heap () in
  let o = Heap.alloc h 32 in
  for _ = 1 to h.Heap.config.Heap.promote_after do
    ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| o |] ] h)
  done;
  Alcotest.(check int) "healthy before the store" 0
    (List.length (Heap.check_integrity h));
  (* an old-to-young store that bypasses the write barrier *)
  Mem.store_word h.Heap.mem o (Heap.alloc h 24);
  fires "remembered-set" h

(* Each young-slot finding, with its detail, on a generational heap
   whose promoted nursery page holds an old object in slot 0 and, after
   the free list handed slot 1 out again, a young one there: the page is
   an aging block whose young-slot map holds slot 1 alone.  A nursery
   page's map holds its young slots too, and a stack block is never
   collected, so it must never be aging. *)
let test_young_slot_findings () =
  let setup () =
    let h = gen_heap () in
    let a = Heap.alloc h 16 in
    ignore (Heap.alloc h 16);
    for _ = 1 to h.Heap.config.Heap.promote_after do
      ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| a |] ] h)
    done;
    let blk = block_of h a in
    let b = Heap.alloc h 16 in
    Alcotest.(check int) "slot 1 reused" (Block.slot_addr blk 1) b;
    Alcotest.(check bool) "aging" true blk.Block.blk_aging;
    (h, blk)
  in
  let findings h =
    List.filter_map
      (fun v ->
        if v.Heap.v_rule = "young-slots" then Some v.Heap.v_detail else None)
      (Heap.check_integrity h)
  in
  let expect name want h =
    Alcotest.(check (list string)) name want (findings h)
  in
  let slot blk i what =
    Printf.sprintf "block %#x: slot %d is %s the young-slot map"
      blk.Block.blk_start i what
  in
  let h, _ = setup () in
  expect "healthy" [] h;
  let h, blk = setup () in
  Bytes.set blk.Block.blk_young_slots 1 '\000';
  expect "young slot left out" [ slot blk 1 "missing from" ] h;
  let h, blk = setup () in
  Bytes.set blk.Block.blk_young_slots 0 '\001';
  expect "old slot kept" [ slot blk 0 "wrongly in" ] h;
  let h, blk = setup () in
  Bytes.set blk.Block.blk_young_slots 9 '\001';
  expect "free slot" [ slot blk 9 "wrongly in" ] h;
  let h, blk = setup () in
  blk.Block.blk_aging <- false;
  expect "block out of the aging set" [ slot blk 1 "wrongly in" ] h;
  let h = gen_heap () in
  let page = block_of h (Heap.alloc h 16) in
  Alcotest.(check bool) "nursery page" true page.Block.blk_young;
  Bytes.set page.Block.blk_young_slots 0 '\000';
  expect "nursery slot left out" [ slot page 0 "missing from" ] h;
  let h, _ = setup () in
  let stack = block_of h (Heap.alloc ~kind:Block.Stack h 16) in
  stack.Block.blk_aging <- true;
  expect "uncollected block aging"
    [ Printf.sprintf "block %#x is never collected, but aging"
        stack.Block.blk_start ]
    h

let test_assert_integrity_raises () =
  let h = fresh () in
  let a = Heap.alloc h 16 in
  let blk = block_of h a in
  let fl =
    Heap.free_list h blk.Block.blk_obj_size blk.Block.blk_kind
  in
  fl := a :: !fl;
  match Heap.assert_integrity h with
  | () -> Alcotest.fail "expected Heap_corruption"
  | exception Heap.Heap_corruption (_ :: _) -> ()
  | exception Heap.Heap_corruption [] ->
      Alcotest.fail "corruption with no violations"

(* qcheck: integrity holds across arbitrary alloc/collect interleavings *)

let prop_integrity_under_interleavings =
  let op =
    QCheck.(
      oneof
        [
          map (fun n -> `Alloc (1 + (n mod 300))) small_nat;
          always `Collect;
          always `Drop;
        ])
  in
  QCheck.Test.make ~count:60 ~name:"integrity across alloc/collect interleavings"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60) op)
    (fun ops ->
      let h = fresh () in
      let live = ref [] in
      List.iter
        (fun op ->
          (match op with
          | `Alloc n -> live := Heap.alloc h n :: !live
          | `Collect ->
              ignore (Heap.collect ~extra_roots:[ Array.of_list !live ] h)
          | `Drop -> (
              match !live with [] -> () | _ :: rest -> live := rest));
          match Heap.check_integrity h with
          | [] -> ()
          | vs ->
              QCheck.Test.fail_reportf "violations: %s"
                (String.concat "; "
                   (List.map
                      (fun v -> Format.asprintf "%a" Heap.pp_violation v)
                      vs)))
        ops;
      true)

(* --- VM resource ceilings degrade to structured outcomes -------------- *)

let spin_src =
  {|int main(void) { long i; for (i = 0; i < 1000000; i = i + 1) ; return 0; }|}

let test_step_limit () =
  let b = Harness.Build.compile Harness.Build.Base spin_src in
  match
    Harness.Measure.exec (Harness.Request.make ~max_instrs:500 spin_src) b
  with
  | Harness.Measure.Limit m ->
      Alcotest.(check bool) "names the step limit" true
        (String.length m > 0)
  | o -> Alcotest.failf "expected Limit, got %s" (Harness.Measure.describe o)

let test_heap_limit () =
  let b =
    Harness.Build.compile Harness.Build.Base
      {|int main(void) { (void)malloc(5000); return 0; }|}
  in
  match Harness.Measure.exec (Harness.Request.make ~max_heap:1 "") b with
  | Harness.Measure.Limit _ -> ()
  | o -> Alcotest.failf "expected Limit, got %s" (Harness.Measure.describe o)

(* --- schedule bit-sets ------------------------------------------------ *)

let test_schedule_points () =
  let open Machine.Schedule in
  let pts = points_of_list [ 9; 2; 2; 40; -3 ] in
  Alcotest.(check (list int)) "sorted, deduped, negatives dropped" [ 2; 9; 40 ]
    (points_to_list pts);
  Alcotest.(check int) "cardinal" 3 (points_cardinal pts);
  Alcotest.(check bool) "member" true (points_mem pts 9);
  Alcotest.(check bool) "non-member" false (points_mem pts 10);
  Alcotest.(check bool) "past the end" false (points_mem pts 1000)

(* --- the shrinker ----------------------------------------------------- *)

let test_ddmin_single_culprit () =
  let calls = ref 0 in
  let still_fails pts =
    incr calls;
    List.mem 7 pts
  in
  Alcotest.(check (list int)) "isolates 7" [ 7 ]
    (Stress.Shrink.ddmin ~still_fails (List.init 100 (fun i -> i)));
  Alcotest.(check bool) "cheaper than brute force" true (!calls < 100)

let test_ddmin_pair () =
  let still_fails pts = List.mem 3 pts && List.mem 12 pts in
  Alcotest.(check (list int)) "isolates the pair" [ 3; 12 ]
    (Stress.Shrink.ddmin ~still_fails (List.init 40 (fun i -> i)))

let prop_ddmin_exact =
  QCheck.Test.make ~count:100 ~name:"ddmin recovers the exact culprit set"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5) (int_bound 79))
        (list_of_size (Gen.int_range 0 80) (int_bound 79)))
    (fun (culprits, extra) ->
      let culprits = List.sort_uniq compare culprits in
      let universe = List.sort_uniq compare (culprits @ extra) in
      let still_fails pts = List.for_all (fun c -> List.mem c pts) culprits in
      Stress.Shrink.ddmin ~still_fails universe = culprits)

(* --- the driver on the known corpus ----------------------------------- *)

let mx ?(configs = Harness.Build.all_configs) ?(gc_modes = [ Gcheap.Heap.Stw ])
    machines =
  {
    Harness.Request.default_matrix with
    Harness.Request.m_configs = configs;
    Harness.Request.m_machines = machines;
    Harness.Request.m_gc_modes = gc_modes;
  }

let hazard_plan =
  {
    Stress.Driver.default_plan with
    Stress.Driver.p_matrix = mx [ Machine.Machdesc.sparc10 ];
  }

let test_driver_finds_hazard () =
  let findings, _, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
  let base, rest =
    List.partition
      (fun f -> f.Stress.Driver.f_config = Harness.Build.Base)
      findings
  in
  Alcotest.(check bool) "base divergence found" true (base <> []);
  Alcotest.(check int) "safe and debug builds are clean" 0 (List.length rest);
  List.iter
    (fun f ->
      Alcotest.(check bool) "expected (a known hazard)" true
        f.Stress.Driver.f_expected;
      Alcotest.(check int) "shrinks to a single collection point" 1
        (List.length f.Stress.Driver.f_min_points);
      Alcotest.(check bool) "reports the point's context" true
        (f.Stress.Driver.f_contexts <> []))
    base

let test_shrunk_schedule_reproduces () =
  (* the minimized point set, replayed as an explicit schedule, still
     diverges from the uninjected run *)
  let subjects =
    Harness.Differ.build_of_matrix
      (mx ~configs:[ Harness.Build.Base ] [ Machine.Machdesc.sparc10 ])
      Stress.Corpus.hazard.Stress.Corpus.t_source
  in
  let subject = List.hd subjects in
  let reference =
    Harness.Differ.observe ~schedule:Machine.Schedule.Auto subject
  in
  let findings, _, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
  let f = List.hd findings in
  let replay =
    Harness.Differ.observe
      ~schedule:(Machine.Schedule.at_list f.Stress.Driver.f_min_points)
      subject
  in
  match Harness.Differ.diff ~reference replay with
  | Some _ -> ()
  | None -> Alcotest.fail "minimized schedule no longer reproduces"

let test_safe_targets_clean () =
  List.iter
    (fun target ->
      let findings, _, _ = Stress.Driver.run_target hazard_plan target in
      Alcotest.(check int)
        (target.Stress.Corpus.t_name ^ " has no findings")
        0 (List.length findings))
    [ Stress.Corpus.strcopy; Stress.Corpus.interior; Stress.Corpus.churn ]

(* --- collector modes in the differential matrix ----------------------- *)

(* every subject, under [schedule], agrees with its machine's reference
   run uninjected *)
let check_agrees ~schedule subjects =
  List.iter
    (fun s ->
      let reference =
        Harness.Differ.observe ~schedule:Machine.Schedule.Auto
          (Harness.Differ.reference subjects
             s.Harness.Differ.s_request.Harness.Request.machine)
      in
      match
        Harness.Differ.diff ~reference (Harness.Differ.observe ~schedule s)
      with
      | None -> ()
      | Some m ->
          Alcotest.failf "%s: %s"
            (Harness.Differ.subject_name s)
            (Harness.Differ.describe_mismatch m))
    subjects

let test_gc_mode_matrix_agrees () =
  (* a safe program behaves identically under the stop-the-world and the
     generational collector, under an injected schedule *)
  let src = Stress.Corpus.strcopy.Stress.Corpus.t_source in
  let stw_only =
    Harness.Differ.build_of_matrix (mx [ Machine.Machdesc.sparc10 ]) src
  in
  let subjects =
    Harness.Differ.build_of_matrix
      (mx ~gc_modes:[ Gcheap.Heap.Stw; Gcheap.Heap.Gen ]
         [ Machine.Machdesc.sparc10 ])
      src
  in
  Alcotest.(check int)
    "gc modes multiply subjects, not builds"
    (2 * List.length stw_only)
    (List.length subjects);
  check_agrees ~schedule:(Machine.Schedule.Every 3) subjects

let has_gen_tag f =
  let s = f.Stress.Driver.f_subject and tag = "[gen]" in
  let n = String.length s and tn = 5 in
  let rec scan i = i + tn <= n && (String.sub s i tn = tag || scan (i + 1)) in
  scan 0

let test_driver_gc_modes_fail_identically () =
  (* the known hazard is a property of the unsafe build, not of the
     collector: the driver finds it under both modes, and the safe and
     debug builds stay clean under both *)
  let plan =
    {
      hazard_plan with
      Stress.Driver.p_matrix =
        mx
          ~gc_modes:[ Gcheap.Heap.Stw; Gcheap.Heap.Gen ]
          [ Machine.Machdesc.sparc10 ];
    }
  in
  let findings, subjects, _ =
    Stress.Driver.run_target plan Stress.Corpus.hazard
  in
  let stw_subjects =
    let _, s, _ = Stress.Driver.run_target hazard_plan Stress.Corpus.hazard in
    s
  in
  Alcotest.(check int) "both modes scanned" (2 * stw_subjects) subjects;
  let base, rest =
    List.partition
      (fun f -> f.Stress.Driver.f_config = Harness.Build.Base)
      findings
  in
  Alcotest.(check int) "safe and debug builds clean in both modes" 0
    (List.length rest);
  let gen_f, stw_f = List.partition has_gen_tag base in
  Alcotest.(check bool) "hazard found under stw" true (stw_f <> []);
  Alcotest.(check bool) "hazard found under gen" true (gen_f <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "expected (a known hazard)" true
        f.Stress.Driver.f_expected)
    base

(* findings' captures from the schedule sweep and the chaos sweep share
   one naming: [<dir>/<target>-<subject>-<n>.<ext>], in a directory made
   on demand, with the names reduced to filename-safe characters *)
let test_capture_path () =
  let root = Filename.temp_dir "capture" "" in
  let dir = Filename.concat root "a/b" in
  let path =
    Stress.Driver.capture_path dir ~target:"hazard" ~subject:"-O @ sparc10" 3
      "flight.json"
  in
  Alcotest.(check string) "name"
    (Filename.concat dir "hazard--O---sparc10-3.flight.json")
    path;
  Alcotest.(check bool) "directory created" true
    (Sys.file_exists dir && Sys.is_directory dir);
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

let test_matrix_agrees () =
  check_agrees ~schedule:(Machine.Schedule.Every 3)
    (Harness.Differ.build_of_matrix
       (mx [ Machine.Machdesc.sparc10 ])
       Stress.Corpus.strcopy.Stress.Corpus.t_source)

let suite =
  [
    Alcotest.test_case "integrity: fresh heap" `Quick test_integrity_fresh;
    Alcotest.test_case "integrity: used heap" `Quick test_integrity_after_use;
    Alcotest.test_case "integrity: stray mark bit" `Quick test_detects_stray_mark;
    Alcotest.test_case "integrity: allocated slot on free list" `Quick
      test_detects_allocated_slot_on_free_list;
    Alcotest.test_case "integrity: slack-byte violation" `Quick
      test_detects_slack_violation;
    Alcotest.test_case "integrity: stray page-map block" `Quick
      test_detects_stray_page_map_block;
    Alcotest.test_case "integrity: stray block beside a duplicate" `Quick
      test_detects_stray_beside_duplicate;
    Alcotest.test_case "integrity: every free-list finding" `Quick
      test_free_list_findings;
    Alcotest.test_case "integrity: unmapped block page" `Quick
      test_detects_unmapped_page;
    Alcotest.test_case "integrity: block-header violation" `Quick
      test_detects_bad_block_header;
    Alcotest.test_case "integrity: nursery violation" `Quick
      test_detects_nursery_violation;
    Alcotest.test_case "integrity: every cursor finding" `Quick
      test_cursor_findings;
    Alcotest.test_case "integrity: remembered-set violation" `Quick
      test_detects_remembered_set_violation;
    Alcotest.test_case "integrity: every young-slot finding" `Quick
      test_young_slot_findings;
    Alcotest.test_case "integrity: assert raises" `Quick
      test_assert_integrity_raises;
    QCheck_alcotest.to_alcotest prop_integrity_under_interleavings;
    Alcotest.test_case "vm: step ceiling" `Quick test_step_limit;
    Alcotest.test_case "vm: heap ceiling" `Quick test_heap_limit;
    Alcotest.test_case "schedule: point sets" `Quick test_schedule_points;
    Alcotest.test_case "shrink: single culprit" `Quick test_ddmin_single_culprit;
    Alcotest.test_case "shrink: culprit pair" `Quick test_ddmin_pair;
    QCheck_alcotest.to_alcotest prop_ddmin_exact;
    Alcotest.test_case "driver: finds the hazard" `Quick test_driver_finds_hazard;
    Alcotest.test_case "driver: shrunk schedule reproduces" `Quick
      test_shrunk_schedule_reproduces;
    Alcotest.test_case "driver: safe targets are clean" `Quick
      test_safe_targets_clean;
    Alcotest.test_case "differ: matrix agreement" `Quick test_matrix_agrees;
    Alcotest.test_case "differ: gc modes agree on safe code" `Quick
      test_gc_mode_matrix_agrees;
    Alcotest.test_case "driver: gc modes fail identically" `Quick
      test_driver_gc_modes_fail_identically;
    Alcotest.test_case "driver: capture paths" `Quick test_capture_path;
  ]
