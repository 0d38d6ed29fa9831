(* The page-segregated bump nursery: bump allocation, cohort promotion,
   reclaim-pool recycling with card hygiene, age hygiene across
   free/realloc, the store barrier on straddled and aging blocks, and
   qcheck invariants over random scripts and nursery sizes. *)

open Gcheap

let nursery_heap ?(nursery_pages = 8) ?(minor_threshold = 1024)
    ?(gc_threshold = 64 * 1024) () =
  let config =
    {
      Heap.default_config with
      Heap.mode = Heap.Gen;
      minor_threshold;
      gc_threshold;
      nursery_pages;
    }
  in
  Heap.create ~config ()

let page_of a = a lsr Mem.page_bits

(* The card table grows lazily with the first real barrier hit; tests
   that poke stale bytes in directly must grow it the same way. *)
let set_card h p =
  if p >= Bytes.length h.Heap.dirty then begin
    let grown = Bytes.make (p + 1) '\000' in
    Bytes.blit h.Heap.dirty 0 grown 0 (Bytes.length h.Heap.dirty);
    h.Heap.dirty <- grown
  end;
  Bytes.set h.Heap.dirty p '\001'

let card h p =
  if p < Bytes.length h.Heap.dirty then Bytes.get h.Heap.dirty p else '\000'

let promote h objs =
  let extra_roots = [ Array.of_list objs ] in
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots h);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots h);
  List.iter
    (fun obj ->
      Alcotest.(check bool)
        "promoted" true
        (match Heap.slot_age h obj with Some a -> a >= 2 | None -> false))
    objs

let no_violations name h =
  Alcotest.(check int) name 0 (List.length (Heap.check_integrity h))

(* --- bump allocation -------------------------------------------------- *)

let test_bump_allocation () =
  let h = nursery_heap () in
  let a = Heap.alloc h 32 in
  let sz =
    match Heap.extent_of h a with
    | Some (_, sz) -> sz
    | None -> Alcotest.fail "no extent"
  in
  let b = Heap.alloc h 32 in
  Alcotest.(check int) "bump: adjacent slots" (a + sz) b;
  Alcotest.(check int) "same nursery page" (page_of a) (page_of b);
  (match Heap.block_at h a with
  | Some blk ->
      Alcotest.(check bool) "block is young" true blk.Block.blk_young;
      Alcotest.(check bool) "bump cursor advanced" true
        (blk.Block.blk_bump >= 2 && blk.Block.blk_bump <= blk.Block.blk_count)
  | None -> Alcotest.fail "nursery page unmapped");
  Alcotest.(check bool) "fresh slots zeroed" true
    (Mem.load_word h.Heap.mem b = 0);
  no_violations "integrity clean" h

let test_nursery_occupancy_triggers_minor () =
  (* the minor trigger fires on nursery occupancy even before the
     allocation-volume threshold *)
  let h = nursery_heap ~nursery_pages:2 ~minor_threshold:max_int () in
  Alcotest.(check bool) "no minor due yet" false (Heap.should_collect_minor h);
  let filled = ref false in
  (* two pages of 64-byte slots is well under minor_threshold bytes *)
  for _ = 1 to (2 * Mem.page_size / 64) + 1 do
    ignore (Heap.alloc h 32);
    if Heap.should_collect_minor h then filled := true
  done;
  Alcotest.(check bool) "nursery occupancy demands a minor" true !filled;
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "trigger resets after the minor" false
    (Heap.should_collect_minor h)

(* --- cohort promotion ------------------------------------------------- *)

let test_promotion_preserves_bytes () =
  let h = nursery_heap () in
  let o = Heap.alloc h 48 in
  for i = 0 to 47 do
    Mem.store h.Heap.mem ~width:1 (o + i) ((i * 7) land 0xff)
  done;
  promote h [ o ];
  (match Heap.block_at h o with
  | Some blk ->
      Alcotest.(check bool) "promoted in place: block no longer young" false
        blk.Block.blk_young
  | None -> Alcotest.fail "promoted page unmapped");
  for i = 0 to 47 do
    Alcotest.(check int)
      (Printf.sprintf "byte %d survives promotion" i)
      ((i * 7) land 0xff)
      (Mem.load h.Heap.mem ~width:1 (o + i) land 0xff)
  done;
  no_violations "integrity clean" h

let test_dead_nursery_page_emptied_by_minor () =
  let h = nursery_heap () in
  let y = Heap.alloc h 32 in
  let p = page_of y in
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "dead young object reclaimed" false
    (Heap.valid_access h y 32);
  Alcotest.(check (list reject)) "no young blocks left" []
    (List.map (fun _ -> ()) h.Heap.young_blocks);
  Alcotest.(check bool) "page left the page map" true
    (Heap.block_at h (p lsl Mem.page_bits) = None)

(* --- satellite: card hygiene across retire and reuse ------------------- *)

let test_retired_page_cards_clean () =
  let h = nursery_heap () in
  let y = Heap.alloc h 32 in
  let p = page_of y in
  (* simulate a stale dirty card left behind by a previous tenant *)
  set_card h p;
  ignore (Heap.collect ~generation:Heap.Minor h);
  let in_pool =
    List.exists
      (fun (s, n) -> p >= page_of s && p < page_of s + n)
      h.Heap.free_pages
  in
  Alcotest.(check bool) "dead nursery page joins the reclaim pool" true
    in_pool;
  Alcotest.(check char) "retiring the run wipes its card" '\000' (card h p);
  (* reuse: dirty the pooled page again, then allocate — the page must
     come back from the pool with a clean card (defense in depth) *)
  set_card h p;
  let y2 = Heap.alloc h 32 in
  Alcotest.(check int) "pool run reused for the next nursery page" p
    (page_of y2);
  Alcotest.(check char) "reused page is not born dirty" '\000' (card h p);
  no_violations "integrity clean" h

(* --- satellite: age hygiene across free/realloc ------------------------ *)

let test_age_resets_on_realloc () =
  let h = nursery_heap () in
  let o = Heap.alloc h 32 in
  promote h [ o ];
  (* drop the root: a full collection frees the promoted slot onto its
     old block's free list *)
  ignore (Heap.collect h);
  let realloc () =
    let rec go n =
      if n > 20_000 then Alcotest.fail "freed slot never reused"
      else
        let a = Heap.alloc h 32 in
        if a = o then a else go (n + 1)
    in
    go 0
  in
  let a = realloc () in
  Alcotest.(check (option int)) "reallocated slot is born young" (Some 0)
    (Heap.slot_age h a);
  (* young means mortal: a rootless minor must reclaim it — a stale age
     byte would make it old and leak it instead *)
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "reused slot dies in a minor like any young object"
    false (Heap.valid_access h a 32);
  (* and young means a full apprenticeship: the slot must survive
     promote_after minors before being promoted again *)
  let b = realloc () in
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| b |] ] h);
  Alcotest.(check (option int)) "ages by one, not instantly old" (Some 1)
    (Heap.slot_age h b);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| b |] ] h);
  Alcotest.(check (option int)) "promoted only after both minors" (Some 2)
    (Heap.slot_age h b);
  no_violations "integrity clean" h

(* --- satellite: straddling stores -------------------------------------- *)

(* One store covering a multi-page old object: every touched page's card
   must go dirty, in particular the last page — where the only
   old-to-young pointer lives. *)
let test_straddling_store () =
  let h = nursery_heap () in
  let o = Heap.alloc h (3 * Mem.page_size) in
  let base, sz =
    match Heap.extent_of h o with
    | Some e -> e
    | None -> Alcotest.fail "no extent"
  in
  promote h [ o ];
  let y = Heap.alloc h 24 in
  (* the pointer sits in the object's final word, pages away from its
     head *)
  let addr = base + sz - 8 in
  Alcotest.(check bool) "pointer word is on a later page" true
    (page_of addr > page_of base);
  Mem.store_word h.Heap.mem addr y;
  (* the barrier reports one store spanning the whole object *)
  Heap.note_store h base sz;
  Alcotest.(check bool) "last page's card is dirty" true
    (Heap.page_is_dirty h addr);
  no_violations "remembered set complete after the straddling store" h;
  (* rootless minor: only the last page's card keeps the young target *)
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "young target survives via the last page's card"
    true
    (Heap.valid_access h y 24);
  no_violations "integrity clean after the minor" h

(* --- the barrier on an aging block --------------------------------------- *)

(* An old block whose freed slot was handed out again as a young object:
   returns the heap, the old survivor [b] and the young reuse [c] of the
   freed slot right beside it, after checking that initializing [c]
   leaves the card clean. *)
let aging_block_scenario () =
  let h = nursery_heap () in
  let a = Heap.alloc h 32 in
  let b = Heap.alloc h 32 in
  promote h [ a; b ];
  (* a major with only [b] rooted frees [a]'s slot onto the free list *)
  ignore (Heap.collect ~extra_roots:[ [| b |] ] h);
  Alcotest.(check bool) "a's slot freed" false (Heap.valid_access h a 32);
  let c = Heap.alloc h 32 in
  Alcotest.(check int) "the freed old slot is reused" a c;
  Alcotest.(check (option int)) "the reuse is young" (Some 0)
    (Heap.slot_age h c);
  (match Heap.block_at h c with
  | Some blk ->
      Alcotest.(check bool) "old block now aging" true blk.Block.blk_aging
  | None -> Alcotest.fail "old block unmapped");
  Alcotest.(check bool) "card clean before the stores" false
    (Heap.page_is_dirty h c);
  Mem.store_word h.Heap.mem c b;
  Heap.note_store h c 8;
  Alcotest.(check bool) "a store into the young reuse leaves the card clean"
    false (Heap.page_is_dirty h c);
  no_violations "integrity clean after the young store" h;
  (h, b, c)

let test_aging_block_barrier () =
  let h, b, c = aging_block_scenario () in
  Mem.store_word h.Heap.mem b c;
  Heap.note_store h b 8;
  Alcotest.(check bool) "a store into the old neighbour dirties the card"
    true (Heap.page_is_dirty h b);
  no_violations "old-to-young pointer on a dirty card" h;
  let h, b, c = aging_block_scenario () in
  let sz =
    match Heap.extent_of h c with
    | Some (_, sz) -> sz
    | None -> Alcotest.fail "no extent"
  in
  Alcotest.(check int) "neighbours" (c + sz) b;
  Heap.note_store h (c + sz - 4) 8;
  Alcotest.(check bool) "a store straddling both slots dirties the card"
    true (Heap.page_is_dirty h b);
  no_violations "integrity clean after the straddling store" h

(* --- blocks that are never collected never age ------------------------ *)

(* A generational heap's large blocks are born young, but only the
   collectable ones join the aging set: a stack or uncollectable block is
   never collected, so no minor sweep visits it.  A large collectable
   object ages like any young object and leaves the set once promoted. *)
let test_uncollected_blocks_never_age () =
  let h = nursery_heap () in
  let stack = Heap.alloc ~kind:Block.Stack h (64 * 1024) in
  let statics = Heap.alloc ~kind:Block.Uncollectable h (3 * Mem.page_size) in
  let large = Heap.alloc h (3 * Mem.page_size) in
  let aging a =
    match Heap.block_at h a with
    | Some blk -> List.memq blk h.Heap.aging_blocks
    | None -> Alcotest.fail "large block unmapped"
  in
  Alcotest.(check bool) "large collectable block aging" true (aging large);
  for minor = 1 to h.Heap.config.Heap.promote_after + 1 do
    ignore
      (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| large |] ] h);
    let after = Printf.sprintf " after minor %d" minor in
    Alcotest.(check bool) ("stack block not aging" ^ after) false (aging stack);
    Alcotest.(check bool)
      ("uncollectable block not aging" ^ after)
      false (aging statics);
    no_violations ("integrity clean" ^ after) h
  done;
  Alcotest.(check bool) "promoted large block left the aging set" false
    (aging large)

(* --- qcheck invariants ------------------------------------------------- *)

(* Random scripts over random nursery sizes: the nursery's structural
   invariants hold throughout (via the sanitizer's nursery rules), and
   the final live set matches a stop-the-world heap running the same
   script — bump allocation and cohort promotion are pure policy. *)
let prop_nursery_equivalence =
  QCheck.Test.make ~count:40
    ~name:"nursery scripts: invariants hold and stw live set is preserved"
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 1 80)
           (triple (int_range 1 300) bool bool)))
    (fun (nursery_pages, spec) ->
      let run heap generational =
        let keep = ref [] in
        List.iter
          (fun (n, k, m) ->
            let a = Heap.alloc heap n in
            if k then keep := a :: !keep;
            if generational && m then
              ignore
                (Heap.collect ~generation:Heap.Minor
                   ~extra_roots:[ Array.of_list !keep ] heap))
          spec;
        ignore (Heap.collect ~extra_roots:[ Array.of_list !keep ] heap);
        Heap.live_summary heap
      in
      let gen_h = nursery_heap ~nursery_pages () in
      let gen_live = run gen_h true in
      (match Heap.check_integrity gen_h with
      | [] -> ()
      | vs ->
          QCheck.Test.fail_reportf "nursery heap integrity: %s"
            (String.concat "; "
               (List.map
                  (fun v -> Format.asprintf "%a" Heap.pp_violation v)
                  vs)));
      List.iter
        (fun (blk : Block.t) ->
          if not blk.Block.blk_young then
            QCheck.Test.fail_reportf "stale non-young block in young set";
          if blk.Block.blk_bump < 0 || blk.Block.blk_bump > blk.Block.blk_count
          then
            QCheck.Test.fail_reportf "bump cursor %d outside [0, %d]"
              blk.Block.blk_bump blk.Block.blk_count)
        gen_h.Heap.young_blocks;
      gen_live = run (Heap.create ()) false)

(* --- the paper workloads: minor pauses and output identity -------------- *)

(* The committed per-workload ceiling on the minor p50, read from
   ci/nursery-baseline.json (a dune dependency of this test, so a
   regression cannot be accepted by re-recording an expectation). *)
let nursery_baseline =
  lazy
    (let path =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         "../ci/nursery-baseline.json"
     in
     match
       Telemetry.Json.parse
         (In_channel.with_open_text path In_channel.input_all)
     with
     | Ok doc -> doc
     | Error e -> Alcotest.failf "%s: %s" path e)

let baseline_p50 name =
  match Telemetry.Json.member name (Lazy.force nursery_baseline) with
  | Some (Telemetry.Json.Int n) -> n
  | _ -> Alcotest.failf "ci/nursery-baseline.json has no %s" name

(* Every paper workload at the gate configuration (safe, sparc10,
   threshold 16384, final collection): generational output equals
   stop-the-world output, and the minor p50 stays at or below the
   committed baseline.  On cordtest and cfrac, whose majors fire
   mid-run against a live heap, the minor p50 is also strictly below
   the stop-the-world major p50 — all on the words-of-work clock. *)
let test_paper_workload_pauses () =
  List.iter
    (fun (w : Workloads.Registry.workload) ->
      let name = w.Workloads.Registry.w_name in
      let stw, stw_snap = Util.gate_run Heap.Stw w in
      let gen, gen_snap = Util.gate_run Heap.Gen w in
      Alcotest.(check string)
        (name ^ ": generational output = stop-the-world output")
        stw.Harness.Measure.o_output gen.Harness.Measure.o_output;
      let minors, minor_p50 =
        Util.histogram_p50 gen_snap "vm/gc/minor/pause_words"
      in
      Alcotest.(check bool) (name ^ ": minors ran") true (minors > 0);
      let base = baseline_p50 name in
      if minor_p50 > base then
        Alcotest.failf "%s: minor p50 %d words regressed past the baseline %d"
          name minor_p50 base;
      if List.mem name [ "cordtest"; "cfrac" ] then begin
        let majors, major_p50 =
          Util.histogram_p50 stw_snap "vm/gc/major/pause_words"
        in
        Alcotest.(check bool) (name ^ ": majors ran") true (majors > 0);
        if minor_p50 >= major_p50 then
          Alcotest.failf "%s: minor p50 %d words not below stw major p50 %d"
            name minor_p50 major_p50
      end)
    Workloads.Registry.paper_suite

let suite =
  [
    Alcotest.test_case "bump allocation fills a shared young page" `Quick
      test_bump_allocation;
    Alcotest.test_case "nursery occupancy triggers a minor" `Quick
      test_nursery_occupancy_triggers_minor;
    Alcotest.test_case "in-place promotion preserves object bytes" `Quick
      test_promotion_preserves_bytes;
    Alcotest.test_case "minor retires wholly-dead nursery pages" `Quick
      test_dead_nursery_page_emptied_by_minor;
    Alcotest.test_case "cards wiped on page retire and reuse" `Quick
      test_retired_page_cards_clean;
    Alcotest.test_case "age restarts at zero across free/realloc" `Quick
      test_age_resets_on_realloc;
    Alcotest.test_case "straddling store dirties the last page" `Quick
      test_straddling_store;
    Alcotest.test_case "aging-block barrier dirties only for old slots"
      `Quick test_aging_block_barrier;
    QCheck_alcotest.to_alcotest prop_nursery_equivalence;
    Alcotest.test_case "paper workloads: minor p50 below baseline and majors"
      `Quick test_paper_workload_pauses;
    Alcotest.test_case "blocks that are never collected never age" `Quick
      test_uncollected_blocks_never_age;
  ]
