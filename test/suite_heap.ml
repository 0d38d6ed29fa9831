(* Conservative collector tests: allocator, page map, marking, sweeping,
   the checking primitives, and qcheck invariants. *)

open Gcheap

let fresh () = Heap.create ()

(* --- allocator ------------------------------------------------------- *)

let test_alloc_basics () =
  let h = fresh () in
  let a = Heap.alloc h 10 in
  Alcotest.(check bool) "nonzero" true (a > 0);
  Alcotest.(check bool) "valid" true (Heap.valid_access h a 10);
  (* zeroed *)
  for i = 0 to 9 do
    Alcotest.(check int) "zero" 0 (Mem.load h.Heap.mem ~width:1 (a + i))
  done

let test_distinct_objects () =
  let h = fresh () in
  let addrs = List.init 200 (fun i -> (Heap.alloc h (8 + (i mod 48)), 8 + (i mod 48))) in
  (* no two extents overlap *)
  let extents =
    List.map
      (fun (a, _) ->
        match Heap.extent_of h a with
        | Some (base, size) -> (base, size)
        | None -> Alcotest.fail "no extent")
      addrs
  in
  let sorted = List.sort compare extents in
  let rec check = function
    | (b1, s1) :: ((b2, _) :: _ as rest) ->
        if b1 + s1 > b2 then Alcotest.failf "overlap at %#x" b2;
        check rest
    | _ -> ()
  in
  check sorted

let test_slack_byte () =
  (* one-past-the-end addresses map back to the object (the paper's extra
     byte) *)
  let h = fresh () in
  List.iter
    (fun n ->
      let a = Heap.alloc h n in
      Alcotest.(check (option int))
        (Printf.sprintf "one past end of %d-byte object" n)
        (Some a)
        (Heap.base_of h (a + n)))
    [ 1; 8; 15; 16; 17; 100; 2047; 5000 ]

let test_one_before_is_not_ours () =
  let h = fresh () in
  let a = Heap.alloc h 64 in
  (match Heap.base_of h (a - 1) with
  | Some b when b = a -> Alcotest.fail "one-before must not map to the object"
  | Some _ | None -> ())

let test_large_objects () =
  let h = fresh () in
  let a = Heap.alloc h 100_000 in
  Alcotest.(check bool) "valid" true (Heap.valid_access h a 100_000);
  Alcotest.(check (option int)) "interior deep inside" (Some a)
    (Heap.base_of h (a + 65_000));
  (* large blocks are reused after collection *)
  let freed = Heap.collect h in
  Alcotest.(check bool) "freed" true (freed >= 1);
  let b = Heap.alloc h 100_000 in
  Alcotest.(check int) "block reused" a b

let test_size_classes () =
  Alcotest.(check int) "16 rounds to 16" 16 (Heap.class_size 16);
  Alcotest.(check int) "17 rounds to 32" 32 (Heap.class_size 17);
  Alcotest.(check int) "256 stays" 256 (Heap.class_size 256);
  Alcotest.(check int) "257 to 512" 512 (Heap.class_size 257);
  Alcotest.(check int) "2048" 2048 (Heap.class_size 2048)

(* --- page map -------------------------------------------------------- *)

let test_page_map () =
  let h = fresh () in
  let a = Heap.alloc h 40 in
  (match Page_map.find h.Heap.map a with
  | Some blk -> Alcotest.(check int) "object size" 48 blk.Block.blk_obj_size
  | None -> Alcotest.fail "allocated address not in page map");
  Alcotest.(check bool) "null page unmapped" true
    (Page_map.find h.Heap.map 42 = None);
  Alcotest.(check bool) "far address unmapped" true
    (Page_map.find h.Heap.map 0x7000_0000 = None)

(* --- collection ------------------------------------------------------ *)

let test_roots_keep () =
  let h = fresh () in
  let keep = Heap.alloc h 32 in
  let lose = Heap.alloc h 32 in
  let freed = Heap.collect ~extra_roots:[ keep ] h in
  Alcotest.(check int) "exactly one freed" 1 freed;
  Alcotest.(check bool) "kept valid" true (Heap.valid_access h keep 32);
  Alcotest.(check bool) "lost invalid" false (Heap.valid_access h lose 32)

let test_interior_pointer_keeps () =
  let h = fresh () in
  let a = Heap.alloc h 100 in
  ignore (Heap.collect ~extra_roots:[ a + 57 ] h);
  Alcotest.(check bool) "kept via interior pointer" true
    (Heap.valid_access h a 100)

let test_transitive_marking () =
  let h = fresh () in
  (* chain of 50 objects, rooted at the head only *)
  let objs = Array.init 50 (fun _ -> Heap.alloc h 16) in
  for i = 0 to 48 do
    Mem.store_word h.Heap.mem objs.(i) objs.(i + 1)
  done;
  let dead = Heap.alloc h 16 in
  ignore (Heap.collect ~extra_roots:[ objs.(0) ] h);
  Array.iter
    (fun a -> Alcotest.(check bool) "chain alive" true (Heap.valid_access h a 16))
    objs;
  Alcotest.(check bool) "unchained dead" false (Heap.valid_access h dead 16)

let test_heap_to_heap_interior () =
  let h = fresh () in
  let target = Heap.alloc h 64 in
  let holder = Heap.alloc h 16 in
  (* holder stores an interior pointer into target *)
  Mem.store_word h.Heap.mem holder (target + 24);
  ignore (Heap.collect ~extra_roots:[ holder ] h);
  Alcotest.(check bool) "target kept via heap interior pointer" true
    (Heap.valid_access h target 64)

let test_poisoning () =
  let h = fresh () in
  let a = Heap.alloc h 32 in
  Mem.store_word h.Heap.mem a 0x1234;
  ignore (Heap.collect h);
  Alcotest.(check int) "poisoned" 0xDB (Mem.load h.Heap.mem ~width:1 a land 0xff)

let test_reuse_after_collect () =
  let h = fresh () in
  let a = Heap.alloc h 32 in
  ignore (Heap.collect h);
  let b = Heap.alloc h 32 in
  Alcotest.(check bool) "slot recycled" true (b = a);
  Alcotest.(check bool) "fresh object zeroed" true
    (Mem.load_word h.Heap.mem b = 0)

let test_uncollectable () =
  let h = fresh () in
  let statics = Heap.alloc ~kind:Block.Uncollectable h 64 in
  let target = Heap.alloc h 16 in
  Mem.store_word h.Heap.mem (statics + 8) target;
  ignore (Heap.collect h);
  Alcotest.(check bool) "statics never swept" true
    (Heap.valid_access h statics 64);
  Alcotest.(check bool) "reachable from statics" true
    (Heap.valid_access h target 16)

let test_stack_kind () =
  let h = fresh () in
  let stack = Heap.alloc ~kind:Block.Stack h 4096 in
  let live_obj = Heap.alloc h 24 in
  let dead_obj = Heap.alloc h 24 in
  (* live_obj's address sits inside the live prefix, dead_obj's beyond it *)
  Mem.store_word h.Heap.mem (stack + 8) live_obj;
  Mem.store_word h.Heap.mem (stack + 512) dead_obj;
  ignore (Heap.collect ~extra_ranges:[ (stack, stack + 64) ] h);
  Alcotest.(check bool) "stack block itself survives" true
    (Heap.valid_access h stack 4096);
  Alcotest.(check bool) "live prefix retains" true
    (Heap.valid_access h live_obj 24);
  Alcotest.(check bool) "dead region does not retain" false
    (Heap.valid_access h dead_obj 24)

let test_atomic_not_scanned () =
  let h = fresh () in
  let target = Heap.alloc h 16 in
  let atomic = Heap.alloc ~kind:Block.Atomic h 16 in
  Mem.store_word h.Heap.mem atomic target;
  ignore (Heap.collect ~extra_roots:[ atomic ] h);
  Alcotest.(check bool) "atomic object itself survives" true
    (Heap.valid_access h atomic 16);
  Alcotest.(check bool) "pointer inside atomic object is not traced" false
    (Heap.valid_access h target 16)

let test_extensions_mode () =
  (* paper's Extensions section: interior pointers valid only from roots *)
  let config = Heap.default_config () in
  config.Heap.all_interior <- false;
  let h = Heap.create ~config () in
  let target = Heap.alloc h 64 in
  let holder = Heap.alloc h 16 in
  Mem.store_word h.Heap.mem holder (target + 24);
  (* root -> holder -> interior-of-target: interior not valid from heap *)
  ignore (Heap.collect ~extra_roots:[ holder ] h);
  Alcotest.(check bool) "heap interior pointer ignored" false
    (Heap.valid_access h target 64);
  (* but interior pointers from roots still work *)
  let t2 = Heap.alloc h 64 in
  ignore (Heap.collect ~extra_roots:[ t2 + 8 ] h);
  Alcotest.(check bool) "root interior pointer honoured" true
    (Heap.valid_access h t2 64)

let test_gc_threshold () =
  let config = Heap.default_config () in
  config.Heap.gc_threshold <- 1024;
  let h = Heap.create ~config () in
  Alcotest.(check bool) "below threshold" false (Heap.should_collect h);
  for _ = 1 to 40 do
    ignore (Heap.alloc h 32)
  done;
  Alcotest.(check bool) "above threshold" true (Heap.should_collect h);
  ignore (Heap.collect h);
  Alcotest.(check bool) "reset after collect" false (Heap.should_collect h)

(* --- checking primitives --------------------------------------------- *)

let test_same_obj_ok () =
  let h = fresh () in
  let a = Heap.alloc h 40 in
  Alcotest.(check int) "within object" (a + 13) (Heap.same_obj h (a + 13) a);
  Alcotest.(check int) "one past end ok" (a + 40) (Heap.same_obj h (a + 40) a);
  (* non-heap q is ignored, as the paper restricts checking to heap ptrs *)
  Alcotest.(check int) "non-heap base ignored" 12345
    (Heap.same_obj h 12345 99999)

let test_same_obj_fail () =
  let h = fresh () in
  let a = Heap.alloc h 40 in
  let check_fails p q =
    match Heap.same_obj h p q with
    | exception Heap.Check_failure _ -> ()
    | _ -> Alcotest.failf "expected failure for %#x vs %#x" p q
  in
  check_fails (a - 8) a;
  check_fails (a + 4096) a;
  Alcotest.(check bool) "failure counted" true
    (h.Heap.stats.Heap.check_failures >= 2)

let test_same_obj_rounding () =
  (* the paper: "not completely accurate, since the garbage collector
     rounds up object sizes" — addresses within the rounded size pass *)
  let h = fresh () in
  let a = Heap.alloc h 10 in
  (* class size is 16: a+14 is technically out of the 10-byte object but
     within the rounded slot *)
  Alcotest.(check int) "within rounding slack" (a + 14)
    (Heap.same_obj h (a + 14) a)

let test_pre_post_incr () =
  let h = fresh () in
  let obj = Heap.alloc h 32 in
  let slot = Heap.alloc h 8 in
  Mem.store_word h.Heap.mem slot obj;
  Alcotest.(check int) "pre_incr returns new" (obj + 4)
    (Heap.pre_incr h slot 4);
  Alcotest.(check int) "slot updated" (obj + 4) (Mem.load_word h.Heap.mem slot);
  Alcotest.(check int) "post_incr returns old" (obj + 4)
    (Heap.post_incr h slot 4);
  Alcotest.(check int) "slot updated again" (obj + 8)
    (Mem.load_word h.Heap.mem slot);
  (* stepping off the object fails and the slot must keep the old value? the
     paper's checker aborts the program, so state after failure is moot —
     but the failure itself must fire *)
  (match Heap.pre_incr h slot 4096 with
  | exception Heap.Check_failure _ -> ()
  | _ -> Alcotest.fail "expected pre_incr failure")

let test_gc_base () =
  let h = fresh () in
  let a = Heap.alloc h 100 in
  Alcotest.(check (option int)) "base of base" (Some a) (Heap.base_of h a);
  Alcotest.(check (option int)) "base of interior" (Some a)
    (Heap.base_of h (a + 63));
  Alcotest.(check (option int)) "null" None (Heap.base_of h 0);
  Alcotest.(check (option int)) "free slot" None
    (let b = Heap.alloc h 100 in
     ignore (Heap.collect ~extra_roots:[ a ] h);
     Heap.base_of h b)

(* --- root-range scanning: the final partial word ---------------------- *)

let test_trailing_partial_word () =
  (* an unaligned root range used to lose up to 7 trailing bytes to
     alignment: plant the only pointer to the victim in the word that
     straddles the range's end *)
  let h = fresh () in
  let stack = Heap.alloc ~kind:Block.Stack h 64 in
  let victim = Heap.alloc h 24 in
  Mem.store_word h.Heap.mem (stack + 8) victim;
  (* the range ends 4 bytes into the pointer's word *)
  ignore (Heap.collect ~extra_ranges:[ (stack, stack + 12) ] h);
  Alcotest.(check bool) "pointer in the final partial word retains" true
    (Heap.valid_access h victim 24)

(* --- generational collection ------------------------------------------ *)

let gen_heap ?(minor_threshold = 1024) ?(gc_threshold = 64 * 1024) () =
  let config = Heap.default_config () in
  config.Heap.mode <- Heap.Gen;
  config.Heap.minor_threshold <- minor_threshold;
  config.Heap.gc_threshold <- gc_threshold;
  Heap.create ~config ()

let minors h = h.Heap.stats.Heap.minor_collections

let majors h = h.Heap.stats.Heap.collections - minors h

let test_promotion () =
  let h = gen_heap () in
  let obj = Heap.alloc h 32 in
  Alcotest.(check (option int)) "born young" (Some 0) (Heap.slot_age h obj);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ obj ] h);
  Alcotest.(check (option int)) "aged by one" (Some 1) (Heap.slot_age h obj);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ obj ] h);
  Alcotest.(check (option int)) "promoted" (Some 2) (Heap.slot_age h obj);
  Alcotest.(check int) "promotion counted" 1 h.Heap.stats.Heap.promoted;
  (* old objects are immune to minors, even unrooted... *)
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "old object survives a rootless minor" true
    (Heap.valid_access h obj 32);
  (* ...but not to a major *)
  ignore (Heap.collect h);
  Alcotest.(check bool) "rootless major reclaims it" false
    (Heap.valid_access h obj 32)

let promote h obj =
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ obj ] h);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ obj ] h);
  Alcotest.(check bool) "promoted"
    true
    (match Heap.slot_age h obj with Some a -> a >= 2 | None -> false)

let test_dirty_card_retains_young () =
  let h = gen_heap () in
  let o = Heap.alloc h 32 in
  promote h o;
  (* an old-to-young pointer stored through the write barrier: the card
     is the only thing keeping the young object alive across a minor *)
  let y = Heap.alloc h 24 in
  Mem.store_word h.Heap.mem o y;
  Heap.note_store h o 8;
  Alcotest.(check bool) "card dirty after barrier" true (Heap.page_is_dirty h o);
  ignore (Heap.collect ~generation:Heap.Minor h);
  Alcotest.(check bool) "young object retained via the dirty card" true
    (Heap.valid_access h y 24);
  (* a major sees the same liveness through normal tracing *)
  ignore (Heap.collect ~extra_roots:[ o ] h);
  Alcotest.(check bool) "major agrees" true (Heap.valid_access h y 24)

let test_remembered_set_integrity () =
  let h = gen_heap () in
  let o = Heap.alloc h 32 in
  promote h o;
  Alcotest.(check int) "healthy heap has no violations" 0
    (List.length (Heap.check_integrity h));
  let y = Heap.alloc h 24 in
  (* a store that bypasses the write barrier leaves the remembered set
     incomplete — the sanitizer must call it out *)
  Mem.store_word h.Heap.mem o y;
  Alcotest.(check bool) "remembered-set violation reported" true
    (List.exists
       (fun v -> v.Heap.v_rule = "remembered-set")
       (Heap.check_integrity h));
  (* the barrier repairs it *)
  Heap.note_store h o 8;
  Alcotest.(check int) "clean once the card is dirty" 0
    (List.length (Heap.check_integrity h))

let test_live_growth_trigger () =
  (* satellite regression: a stable-footprint loop must not trigger
     back-to-back majors — minors credit reclaimed bytes against the
     live-growth estimate *)
  let h = gen_heap ~minor_threshold:1024 ~gc_threshold:8192 () in
  for _ = 1 to 200 do
    ignore (Heap.alloc h 64);
    if Heap.should_collect h then ignore (Heap.collect h)
    else if Heap.should_collect_minor h then
      ignore (Heap.collect ~generation:Heap.Minor h)
  done;
  Alcotest.(check int) "stable footprint triggers no majors" 0 (majors h);
  Alcotest.(check bool) "minors did the reclaiming" true (minors h > 5)

let test_minor_major_equivalence () =
  (* the same allocation script, with and without interleaved minors,
     ends in the same live set after a final stop-the-world major *)
  let script h minor =
    let keep = ref [] in
    for i = 1 to 120 do
      let a = Heap.alloc h (16 + (i mod 40)) in
      if i mod 7 = 0 then keep := a :: !keep;
      if minor && i mod 20 = 0 then
        ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:!keep h)
    done;
    ignore (Heap.collect ~extra_roots:!keep h);
    Heap.live_summary h
  in
  Alcotest.(check (pair int int))
    "final live set identical"
    (script (fresh ()) false)
    (script (gen_heap ()) true)

let prop_gen_equivalence =
  QCheck.Test.make ~count:40
    ~name:"generational minors preserve the rooted live set"
    QCheck.(
      list_of_size Gen.(int_range 1 80) (triple (int_range 1 300) bool bool))
    (fun spec ->
      let run generational =
        let h = if generational then gen_heap () else fresh () in
        let keep = ref [] in
        List.iter
          (fun (n, k, m) ->
            let a = Heap.alloc h n in
            if k then keep := a :: !keep;
            if generational && m then
              ignore
                (Heap.collect ~generation:Heap.Minor ~extra_roots:!keep h))
          spec;
        ignore (Heap.collect ~extra_roots:!keep h);
        Heap.live_summary h
      in
      run false = run true)

(* --- qcheck invariants ------------------------------------------------ *)

(* random allocation sizes; every allocated object is disjoint, aligned,
   and base_of round-trips from every interior offset sample *)
let prop_alloc_invariants =
  QCheck.Test.make ~count:60 ~name:"allocation invariants"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 600))
    (fun sizes ->
      let h = fresh () in
      let objs = List.map (fun n -> (Heap.alloc h n, n)) sizes in
      List.for_all
        (fun (a, n) ->
          a mod 16 = 0
          && Heap.valid_access h a n
          && Heap.base_of h a = Some a
          && Heap.base_of h (a + (n / 2)) = Some a
          && Heap.base_of h (a + n) = Some a)
        objs)

(* random keep sets: kept objects always survive, dropped objects are
   always reclaimed (no references between objects here) *)
let prop_collect_exact =
  QCheck.Test.make ~count:60 ~name:"collection keeps exactly the rooted set"
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 1 300) bool))
    (fun spec ->
      let h = fresh () in
      let objs = List.map (fun (n, keep) -> (Heap.alloc h n, n, keep)) spec in
      let roots =
        List.filter_map (fun (a, _, keep) -> if keep then Some a else None) objs
      in
      ignore (Heap.collect ~extra_roots:roots h);
      List.for_all
        (fun (a, n, keep) -> Heap.valid_access h a n = keep)
        objs)

(* same_obj never fails for addresses within [base, base+size] and always
   fails outside the page-rounded object *)
let prop_same_obj =
  QCheck.Test.make ~count:200 ~name:"same_obj boundary behaviour"
    QCheck.(pair (int_range 1 2000) (int_range (-64) 2500))
    (fun (n, off) ->
      let h = fresh () in
      let a = Heap.alloc h n in
      let p = a + off in
      match Heap.extent_of h a with
      | None -> false
      | Some (_, rounded) -> (
          match Heap.same_obj h p a with
          | _ -> off >= 0 && off <= rounded
          | exception Heap.Check_failure _ -> off < 0 || off > rounded))

let suite =
  [
    Alcotest.test_case "alloc basics" `Quick test_alloc_basics;
    Alcotest.test_case "objects disjoint" `Quick test_distinct_objects;
    Alcotest.test_case "one extra byte" `Quick test_slack_byte;
    Alcotest.test_case "one before the object" `Quick
      test_one_before_is_not_ours;
    Alcotest.test_case "large objects" `Quick test_large_objects;
    Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "page map" `Quick test_page_map;
    Alcotest.test_case "roots keep objects" `Quick test_roots_keep;
    Alcotest.test_case "interior pointers keep" `Quick
      test_interior_pointer_keeps;
    Alcotest.test_case "transitive marking" `Quick test_transitive_marking;
    Alcotest.test_case "heap-to-heap interior" `Quick
      test_heap_to_heap_interior;
    Alcotest.test_case "sweeping poisons" `Quick test_poisoning;
    Alcotest.test_case "slot reuse" `Quick test_reuse_after_collect;
    Alcotest.test_case "uncollectable objects" `Quick test_uncollectable;
    Alcotest.test_case "stack blocks: live prefix only" `Quick
      test_stack_kind;
    Alcotest.test_case "atomic objects" `Quick test_atomic_not_scanned;
    Alcotest.test_case "extensions mode (root-only interior)" `Quick
      test_extensions_mode;
    Alcotest.test_case "gc threshold" `Quick test_gc_threshold;
    Alcotest.test_case "GC_same_obj ok" `Quick test_same_obj_ok;
    Alcotest.test_case "GC_same_obj failures" `Quick test_same_obj_fail;
    Alcotest.test_case "GC_same_obj rounding" `Quick test_same_obj_rounding;
    Alcotest.test_case "GC_pre/post_incr" `Quick test_pre_post_incr;
    Alcotest.test_case "GC_base" `Quick test_gc_base;
    Alcotest.test_case "root range: final partial word" `Quick
      test_trailing_partial_word;
    Alcotest.test_case "gen: promotion after two minors" `Quick
      test_promotion;
    Alcotest.test_case "gen: dirty card retains young" `Quick
      test_dirty_card_retains_young;
    Alcotest.test_case "gen: remembered-set completeness check" `Quick
      test_remembered_set_integrity;
    Alcotest.test_case "gen: live-growth trigger (no back-to-back majors)"
      `Quick test_live_growth_trigger;
    Alcotest.test_case "gen: minor-then-major equivalence" `Quick
      test_minor_major_equivalence;
    QCheck_alcotest.to_alcotest prop_gen_equivalence;
    QCheck_alcotest.to_alcotest prop_alloc_invariants;
    QCheck_alcotest.to_alcotest prop_collect_exact;
    QCheck_alcotest.to_alcotest prop_same_obj;
  ]
