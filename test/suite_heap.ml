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
  (match Heap.block_at h a with
  | Some blk -> Alcotest.(check int) "object size" 48 blk.Block.blk_obj_size
  | None -> Alcotest.fail "allocated address not in page map");
  Alcotest.(check bool) "null page unmapped" true
    (Heap.block_at h 42 = None);
  Alcotest.(check bool) "far address unmapped" true
    (Heap.block_at h 0x7000_0000 = None)

(* --- collection ------------------------------------------------------ *)

let test_roots_keep () =
  let h = fresh () in
  let keep = Heap.alloc h 32 in
  let lose = Heap.alloc h 32 in
  let freed = Heap.collect ~extra_roots:[ [| keep |] ] h in
  Alcotest.(check int) "exactly one freed" 1 freed;
  Alcotest.(check bool) "kept valid" true (Heap.valid_access h keep 32);
  Alcotest.(check bool) "lost invalid" false (Heap.valid_access h lose 32)

let test_interior_pointer_keeps () =
  let h = fresh () in
  let a = Heap.alloc h 100 in
  ignore (Heap.collect ~extra_roots:[ [| a + 57 |] ] h);
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
  ignore (Heap.collect ~extra_roots:[ [| objs.(0) |] ] h);
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
  ignore (Heap.collect ~extra_roots:[ [| holder |] ] h);
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
  ignore (Heap.collect ~extra_roots:[ [| atomic |] ] h);
  Alcotest.(check bool) "atomic object itself survives" true
    (Heap.valid_access h atomic 16);
  Alcotest.(check bool) "pointer inside atomic object is not traced" false
    (Heap.valid_access h target 16)

let test_extensions_mode () =
  (* paper's Extensions section: interior pointers valid only from roots *)
  let config = { Heap.default_config with Heap.all_interior = false } in
  let h = Heap.create ~config () in
  let target = Heap.alloc h 64 in
  let holder = Heap.alloc h 16 in
  Mem.store_word h.Heap.mem holder (target + 24);
  (* root -> holder -> interior-of-target: interior not valid from heap *)
  ignore (Heap.collect ~extra_roots:[ [| holder |] ] h);
  Alcotest.(check bool) "heap interior pointer ignored" false
    (Heap.valid_access h target 64);
  (* but interior pointers from roots still work *)
  let t2 = Heap.alloc h 64 in
  ignore (Heap.collect ~extra_roots:[ [| t2 + 8 |] ] h);
  Alcotest.(check bool) "root interior pointer honoured" true
    (Heap.valid_access h t2 64)

let test_gc_threshold () =
  let config = { Heap.default_config with Heap.gc_threshold = 1024 } in
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
     ignore (Heap.collect ~extra_roots:[ [| a |] ] h);
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
  let config =
    {
      Heap.default_config with
      Heap.mode = Heap.Gen;
      minor_threshold;
      gc_threshold;
    }
  in
  Heap.create ~config ()

let minors h = h.Heap.stats.Heap.minor_collections

let majors h = h.Heap.stats.Heap.collections - minors h

let test_promotion () =
  let h = gen_heap () in
  let obj = Heap.alloc h 32 in
  Alcotest.(check (option int)) "born young" (Some 0) (Heap.slot_age h obj);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| obj |] ] h);
  Alcotest.(check (option int)) "aged by one" (Some 1) (Heap.slot_age h obj);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| obj |] ] h);
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
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| obj |] ] h);
  ignore (Heap.collect ~generation:Heap.Minor ~extra_roots:[ [| obj |] ] h);
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
  ignore (Heap.collect ~extra_roots:[ [| o |] ] h);
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
        ignore
          (Heap.collect ~generation:Heap.Minor
             ~extra_roots:[ Array.of_list !keep ] h)
    done;
    ignore (Heap.collect ~extra_roots:[ Array.of_list !keep ] h);
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
                (Heap.collect ~generation:Heap.Minor
                   ~extra_roots:[ Array.of_list !keep ] h))
          spec;
        ignore (Heap.collect ~extra_roots:[ Array.of_list !keep ] h);
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
      ignore (Heap.collect ~extra_roots:[ Array.of_list roots ] h);
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

(* --- reference-model differential for the collector ------------------ *)

(* The sweeps and the card recompute in their plain form, one slot per
   step, with an option-returning pointer test and a full rescan of
   every slot of a dirty card, run on a copy of the heap's state taken
   just before each collection or increment.  Afterwards the heap must
   agree with the model on every allocated byte, age and mark, the free
   lists (order included), the nursery and aging sets, the reclaim pool,
   the dirty cards, the sweep position, the poison of every freed slot
   and every stats field.  For a stop-the-world or minor collection the
   model also marks from the roots itself; an increment's marking is
   interleaved with the store barrier, so the model takes its marks and
   its marking counters ([words_scanned], [final_marks]) from the heap
   and checks the sweep side and the words of work the step reports. *)

type mblock = {
  b : Block.t;
  alloc : Bytes.t;
  age : Bytes.t;
  mark : Bytes.t;
  mutable young : bool;
  mutable aging : bool;
  mutable bump : int;
}

type model = {
  h : Heap.t;  (** read for config, page map and memory only *)
  blocks : mblock list;
  mutable all : Block.t list;
  mutable young_set : Block.t list;
  mutable aging_set : Block.t list;
  fl : (int * Block.kind, int list ref) Hashtbl.t;
  mutable dirty : Bytes.t;
  mutable dirty_index : int list;
  mutable free_pages : (int * int) list;
  mutable pending : Block.t list;
  mutable cursor : int;
  mutable phase : Heap.phase;
  st : Heap.stats;
  mutable freed : (int * int) list;
}

(* every (class size, kind) pair the allocator has a free list for *)
let free_list_keys =
  List.concat_map
    (fun cls ->
      List.map (fun kind -> (cls, kind))
        [ Block.Normal; Block.Atomic; Block.Uncollectable; Block.Stack ])
    (List.init 16 (fun i -> 16 * (i + 1)) @ [ 512; 1024; 2048 ])

let snapshot h =
  let fl = Hashtbl.create 76 in
  List.iter
    (fun (cls, kind) ->
      Hashtbl.replace fl (cls, kind) (ref !(Heap.free_list h cls kind)))
    free_list_keys;
  {
    h;
    blocks =
      List.map
        (fun b ->
          {
            b;
            alloc = Bytes.copy b.Block.blk_alloc;
            age = Bytes.copy b.Block.blk_age;
            mark = Bytes.copy b.Block.blk_mark;
            young = b.Block.blk_young;
            aging = b.Block.blk_aging;
            bump = b.Block.blk_bump;
          })
        h.Heap.all_blocks;
    all = h.Heap.all_blocks;
    young_set = h.Heap.young_blocks;
    aging_set = h.Heap.aging_blocks;
    fl;
    dirty = Bytes.copy h.Heap.dirty;
    dirty_index = h.Heap.dirty_index;
    free_pages = h.Heap.free_pages;
    pending = h.Heap.sweep_pending;
    cursor = h.Heap.sweep_cursor;
    phase = h.Heap.phase;
    st = { h.Heap.stats with Heap.collections = h.Heap.stats.Heap.collections };
    freed = [];
  }

let mb m blk = List.find (fun x -> x.b == blk) m.blocks

let r_alloc x i = Bytes.get x.alloc i <> '\000'

let r_old m x i =
  Char.code (Bytes.get x.age i) >= m.h.Heap.config.Heap.promote_after

let r_slot_addr (blk : Block.t) i =
  blk.Block.blk_start + (i * blk.Block.blk_obj_size)

let r_page a = a lsr Mem.page_bits

let r_mark_dirty m p =
  if p >= Bytes.length m.dirty then begin
    let grown =
      Bytes.make (max (p + 1) ((2 * Bytes.length m.dirty) + 64)) '\000'
    in
    Bytes.blit m.dirty 0 grown 0 (Bytes.length m.dirty);
    m.dirty <- grown
  end;
  if Bytes.get m.dirty p = '\000' then m.dirty_index <- p :: m.dirty_index;
  Bytes.set m.dirty p '\001'

let r_dirty_slot_pages m blk i =
  let s = r_slot_addr blk i in
  for p = r_page s to r_page (s + blk.Block.blk_obj_size - 1) do
    r_mark_dirty m p
  done

let r_free_list m key = Hashtbl.find m.fl key

let r_free_slot m x i =
  let blk = x.b in
  let size = blk.Block.blk_obj_size in
  Bytes.set x.alloc i '\000';
  Bytes.set x.age i '\000';
  m.st.Heap.objects_freed <- m.st.Heap.objects_freed + 1;
  m.st.Heap.bytes_freed <- m.st.Heap.bytes_freed + blk.Block.blk_req.(i);
  let addr = r_slot_addr blk i in
  m.freed <- (addr, size) :: m.freed;
  if size <= Heap.max_small && not x.young then begin
    let fl = r_free_list m (size, blk.Block.blk_kind) in
    fl := addr :: !fl
  end

(* the pointer test in its allocating form *)
let r_plausible m ~from_root v =
  match Heap.block_at m.h v with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk v with
      | None -> None
      | Some i ->
          let x = mb m blk in
          if not (r_alloc x i) then None
          else if
            m.h.Heap.config.Heap.all_interior || from_root
            || v = r_slot_addr blk i
          then Some (x, i)
          else None)

let r_iter_words m start stop f =
  let limit = Mem.limit m.h.Heap.mem in
  let a = ref ((start + 7) / 8 * 8) in
  while !a < stop && (!a + 8 <= stop || !a + 8 <= limit) do
    f (Mem.load_word m.h.Heap.mem !a);
    a := !a + 8
  done

(* each genuinely dirty page once, in index order *)
let r_dirty_pages m =
  List.fold_left
    (fun seen p ->
      if
        p < Bytes.length m.dirty
        && Bytes.get m.dirty p <> '\000'
        && not (List.mem p seen)
      then p :: seen
      else seen)
    [] m.dirty_index
  |> List.rev

(* old slots of [blk] clipped to the page at [page_start], every slot
   tested *)
let r_old_slices m blk page_start f =
  let x = mb m blk in
  let page_stop = page_start + Mem.page_size in
  for i = 0 to blk.Block.blk_count - 1 do
    if r_alloc x i && r_old m x i then begin
      let s = max (r_slot_addr blk i) page_start in
      let e = min (r_slot_addr blk i + blk.Block.blk_obj_size) page_stop in
      if s < e then f s e
    end
  done

(* marks of an atomic collection, from the roots; returns the words
   scanned and the cards visited *)
let r_mark m ~minor ~roots =
  List.iter
    (fun x -> Bytes.fill x.mark 0 (Bytes.length x.mark) '\000')
    m.blocks;
  let gray = ref [] and words = ref 0 and cards = ref 0 in
  let shade ~from_root v =
    match r_plausible m ~from_root v with
    | Some (x, i)
      when Bytes.get x.mark i = '\000'
           && not (minor && Block.collectable x.b && r_old m x i) ->
        Bytes.set x.mark i '\001';
        if Block.scanned x.b then
          gray := (r_slot_addr x.b i, r_slot_addr x.b (i + 1)) :: !gray
    | Some _ | None -> ()
  in
  let scan ~from_root s e =
    r_iter_words m s e (fun v ->
        incr words;
        shade ~from_root v)
  in
  List.iter (shade ~from_root:true) roots;
  List.iter
    (fun blk ->
      if Block.root_scanned blk then
        let x = mb m blk in
        for i = 0 to blk.Block.blk_count - 1 do
          if r_alloc x i then begin
            Bytes.set x.mark i '\001';
            scan ~from_root:true (r_slot_addr blk i) (r_slot_addr blk (i + 1))
          end
        done)
    m.all;
  if minor then
    List.iter
      (fun p ->
        incr cards;
        let page_start = p lsl Mem.page_bits in
        match Heap.block_at m.h page_start with
        | Some blk when Block.collectable blk && Block.scanned blk ->
            r_old_slices m blk page_start (scan ~from_root:false)
        | Some _ | None -> ())
      (r_dirty_pages m);
  let rec drain () =
    match !gray with
    | (s, e) :: rest ->
        gray := rest;
        scan ~from_root:false s e;
        drain ()
    | [] -> ()
  in
  drain ();
  (!words, !cards)

let r_sweep_slice m ~spent ~budget =
  let continue_ = ref true in
  while !continue_ && !spent < budget do
    match m.pending with
    | [] -> continue_ := false
    | blk :: rest ->
        let x = mb m blk in
        let worst = 1 + (blk.Block.blk_obj_size / 8) in
        let i = ref m.cursor in
        if Block.collectable blk then
          while
            !i < blk.Block.blk_count && (!spent + worst <= budget || !spent = 0)
          do
            incr spent;
            if r_alloc x !i && Bytes.get x.mark !i = '\000' then begin
              r_free_slot m x !i;
              spent := !spent + (blk.Block.blk_obj_size / 8)
            end;
            incr i
          done
        else i := blk.Block.blk_count;
        if !i >= blk.Block.blk_count then begin
          m.pending <- rest;
          m.cursor <- 0
        end
        else begin
          m.cursor <- !i;
          continue_ := false
        end
  done

let r_coalesce m =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) m.free_pages in
  m.free_pages <-
    List.rev
      (List.fold_left
         (fun acc (s, p) ->
           match acc with
           | (ps, pp) :: rest when ps + (pp * Mem.page_size) = s ->
               (ps, pp + p) :: rest
           | _ -> (s, p) :: acc)
         [] sorted)

let r_retire m blk =
  m.all <- List.filter (fun b -> not (b == blk)) m.all;
  m.young_set <- List.filter (fun b -> not (b == blk)) m.young_set;
  let first = r_page blk.Block.blk_start in
  for p = first to first + blk.Block.blk_pages - 1 do
    if p < Bytes.length m.dirty then Bytes.set m.dirty p '\000'
  done;
  m.free_pages <- (blk.Block.blk_start, blk.Block.blk_pages) :: m.free_pages

let r_promote m blk =
  let x = mb m blk in
  x.young <- false;
  x.bump <- blk.Block.blk_count;
  m.young_set <- List.filter (fun b -> not (b == blk)) m.young_set;
  let fl = r_free_list m (blk.Block.blk_obj_size, blk.Block.blk_kind) in
  for i = blk.Block.blk_count - 1 downto 0 do
    if not (r_alloc x i) then begin
      Bytes.set x.age i '\000';
      fl := r_slot_addr blk i :: !fl
    end
  done

let r_sweep_minor m =
  let pa = m.h.Heap.config.Heap.promote_after in
  let sweep_block blk =
    let x = mb m blk in
    if Block.collectable blk then
      for i = 0 to blk.Block.blk_count - 1 do
        if r_alloc x i && not (r_old m x i) then
          if Bytes.get x.mark i = '\000' then r_free_slot m x i
          else begin
            Bytes.set x.age i
              (Char.chr (min 255 (Char.code (Bytes.get x.age i) + 1)));
            if r_old m x i && not x.young then begin
              m.st.Heap.promoted <- m.st.Heap.promoted + 1;
              r_dirty_slot_pages m blk i
            end
          end
      done
  in
  let young = m.young_set in
  List.iter sweep_block young;
  List.iter sweep_block m.aging_set;
  let retired = ref false in
  List.iter
    (fun blk ->
      let x = mb m blk in
      let survivors = ref 0 and cohort_age = ref 0 in
      for i = 0 to blk.Block.blk_count - 1 do
        if r_alloc x i then begin
          incr survivors;
          cohort_age := Char.code (Bytes.get x.age i)
        end
      done;
      if !survivors = 0 then begin
        r_retire m blk;
        retired := true
      end
      else if !cohort_age >= pa then begin
        m.st.Heap.promoted <- m.st.Heap.promoted + !survivors;
        for i = 0 to blk.Block.blk_count - 1 do
          if r_alloc x i then r_dirty_slot_pages m blk i
        done;
        r_promote m blk
      end)
    young;
  if !retired then r_coalesce m;
  m.aging_set <-
    List.filter
      (fun blk ->
        let x = mb m blk in
        let has_young = ref false in
        for i = 0 to blk.Block.blk_count - 1 do
          if r_alloc x i && not (r_old m x i) then has_young := true
        done;
        if not !has_young then x.aging <- false;
        !has_young)
      m.aging_set

let r_recompute_cards m =
  let retained = ref [] in
  List.iter
    (fun p ->
      let page_start = p lsl Mem.page_bits in
      let needed = ref false in
      (match Heap.block_at m.h page_start with
      | Some blk
        when Block.collectable blk && Block.scanned blk && not (mb m blk).young
        ->
          r_old_slices m blk page_start (fun s e ->
              r_iter_words m s e (fun v ->
                  match r_plausible m ~from_root:false v with
                  | Some (x, i) when Block.collectable x.b && not (r_old m x i)
                    ->
                      needed := true
                  | Some _ | None -> ()))
      | Some _ | None -> ());
      if !needed then retained := p :: !retained
      else Bytes.set m.dirty p '\000')
    (r_dirty_pages m);
  m.dirty_index <- !retained

let r_complete m ~minor =
  let gen = m.h.Heap.config.Heap.mode = Heap.Gen in
  m.phase <- Heap.Idle;
  m.st.Heap.collections <- m.st.Heap.collections + 1;
  if minor then m.st.Heap.minor_collections <- m.st.Heap.minor_collections + 1;
  if gen then begin
    let dead =
      List.filter
        (fun blk ->
          let x = mb m blk in
          not (List.exists (r_alloc x) (List.init blk.Block.blk_count Fun.id)))
        m.young_set
    in
    List.iter (r_retire m) dead;
    if dead <> [] then r_coalesce m;
    r_recompute_cards m
  end

let r_collect m ~minor ~roots =
  let minor = minor && m.h.Heap.config.Heap.mode = Heap.Gen in
  if m.phase <> Heap.Idle then begin
    m.phase <- Heap.Idle;
    m.pending <- [];
    m.st.Heap.abandoned_cycles <- m.st.Heap.abandoned_cycles + 1
  end;
  let words, cards = r_mark m ~minor ~roots in
  m.st.Heap.words_scanned <- m.st.Heap.words_scanned + words;
  m.st.Heap.cards_scanned <- m.st.Heap.cards_scanned + cards;
  if minor then r_sweep_minor m
  else begin
    m.pending <- m.all;
    m.cursor <- 0;
    r_sweep_slice m ~spent:(ref 0) ~budget:max_int
  end;
  r_complete m ~minor

(* one increment, its marking taken from the heap [h] after the step *)
let r_step m ~nroots h =
  let budget = max 1 h.Heap.config.Heap.pause_budget_words in
  let hs = h.Heap.stats in
  let words = hs.Heap.words_scanned - m.st.Heap.words_scanned in
  let finals = hs.Heap.final_marks - m.st.Heap.final_marks in
  List.iter
    (fun x -> Bytes.blit x.b.Block.blk_mark 0 x.mark 0 (Bytes.length x.mark))
    m.blocks;
  let spent =
    ref
      (words + (if m.phase = Heap.Idle then nroots else 0) + (finals * nroots))
  in
  m.st.Heap.words_scanned <- hs.Heap.words_scanned;
  m.st.Heap.final_marks <- hs.Heap.final_marks;
  if m.phase = Heap.Idle then m.phase <- Heap.Marking;
  if m.phase = Heap.Marking && finals > 0 then begin
    m.phase <- Heap.Sweeping;
    m.pending <- m.all;
    m.cursor <- 0
  end;
  if m.phase = Heap.Sweeping then begin
    r_sweep_slice m ~spent ~budget;
    if m.pending = [] then r_complete m ~minor:false
  end;
  m.st.Heap.increments <- m.st.Heap.increments + 1;
  if !spent > budget then
    m.st.Heap.budget_overruns <- m.st.Heap.budget_overruns + 1;
  m.st.Heap.inc_max_pause_words <- max m.st.Heap.inc_max_pause_words !spent;
  !spent

let same_blocks a b = List.length a = List.length b && List.for_all2 ( == ) a b

let dirty_set d =
  List.filter
    (fun p -> Bytes.get d p <> '\000')
    (List.init (Bytes.length d) Fun.id)

(* the heap agrees with the model, or the property fails with the first
   difference *)
let agree what m h =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  if not (same_blocks m.all h.Heap.all_blocks) then fail "all_blocks";
  if not (same_blocks m.young_set h.Heap.young_blocks) then fail "young_blocks";
  if not (same_blocks m.aging_set h.Heap.aging_blocks) then fail "aging_blocks";
  if not (same_blocks m.pending h.Heap.sweep_pending) then fail "sweep_pending";
  if m.cursor <> h.Heap.sweep_cursor then
    fail "sweep cursor %d, model %d" h.Heap.sweep_cursor m.cursor;
  if m.phase <> h.Heap.phase then fail "phase";
  List.iter
    (fun x ->
      let b = x.b in
      if not (Bytes.equal x.alloc b.Block.blk_alloc) then
        fail "allocated slots of block %#x" b.Block.blk_start;
      if not (Bytes.equal x.age b.Block.blk_age) then
        fail "ages of block %#x" b.Block.blk_start;
      if not (Bytes.equal x.mark b.Block.blk_mark) then
        fail "marks of block %#x" b.Block.blk_start;
      if x.young <> b.Block.blk_young || x.aging <> b.Block.blk_aging
         || x.bump <> b.Block.blk_bump
      then fail "nursery flags of block %#x" b.Block.blk_start;
      if not (List.memq b m.all) then
        match Heap.block_at h b.Block.blk_start with
        | Some b' when b' == b ->
            fail "retired block %#x still mapped" b.Block.blk_start
        | Some _ | None -> ())
    m.blocks;
  let listed = ref 0 in
  Hashtbl.iter
    (fun (cls, kind) l ->
      listed := !listed + List.length !l;
      if !(Heap.free_list h cls kind) <> !l then
        fail "free list of class %d" cls)
    m.fl;
  if
    !listed
    <> Array.fold_left (fun n l -> n + List.length !l) 0 h.Heap.free_lists
  then fail "free-list entries outside the size classes";
  if dirty_set m.dirty <> dirty_set h.Heap.dirty then fail "dirty cards";
  if m.dirty_index <> h.Heap.dirty_index then fail "dirty-card index";
  if m.free_pages <> h.Heap.free_pages then fail "reclaim pool";
  if m.st <> h.Heap.stats then
    fail "stats: heap %a, model %a" Heap.pp_stats h.Heap.stats Heap.pp_stats
      m.st;
  List.iter
    (fun (addr, size) ->
      for k = 0 to size - 1 do
        if Mem.load h.Heap.mem ~width:1 (addr + k) land 0xff <> 0xDB then
          fail "freed slot %#x not poisoned" addr
      done)
    m.freed

type op =
  | Alloc of int * Block.kind
  | Store of int * int * int * int  (** src, field, dst (< 0: an int), offset *)
  | Drop of int
  | Collect of bool  (** minor? *)
  | Step

let print_op = function
  | Alloc (n, k) ->
      Printf.sprintf "alloc %d%s" n
        (match k with
        | Block.Atomic -> " atomic"
        | Block.Uncollectable -> " uncollectable"
        | Block.Normal | Block.Stack -> "")
  | Store (s, f, d, o) -> Printf.sprintf "store %d.%d <- %d+%d" s f d o
  | Drop i -> Printf.sprintf "drop %d" i
  | Collect minor -> if minor then "minor" else "major"
  | Step -> "step"

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 8,
        map2
          (fun n k -> Alloc (n, k))
          (frequency [ (12, int_range 1 200); (1, int_range 2040 6000) ])
          (frequency
             [ (8, return Block.Normal); (2, return Block.Atomic);
               (1, return Block.Uncollectable) ]) );
      ( 8,
        map
          (fun (s, f, d, o) -> Store (s, f, d, o))
          (quad nat nat (int_range (-1) 1000) (int_range 0 64)) );
      (2, map (fun i -> Drop i) nat);
      (2, map (fun b -> Collect b) bool);
      (3, return Step);
    ]

type script = {
  mode : Heap.gc_mode;
  budget : int;
  promote_after : int;
  nursery_pages : int;
  all_interior : bool;
  ops : op list;
}

let script_gen =
  let open QCheck.Gen in
  map
    (fun ((mode, budget, promote_after), (nursery_pages, all_interior, ops)) ->
      { mode; budget; promote_after; nursery_pages; all_interior; ops })
    (pair
       (triple
          (oneofl [ Heap.Stw; Heap.Gen; Heap.Inc ])
          (oneof [ int_range 1 16; int_range 1 2048 ])
          (int_range 1 3))
       (triple (int_range 1 4)
          (frequency [ (4, return true); (1, return false) ])
          (list_size (int_range 1 120) op_gen)))

let print_script s =
  Printf.sprintf "%s budget=%d promote_after=%d nursery_pages=%d%s:\n  %s"
    (Heap.gc_mode_name s.mode) s.budget s.promote_after s.nursery_pages
    (if s.all_interior then "" else " base-only")
    (String.concat "; " (List.map print_op s.ops))

(* [probe h objs] runs after every collection and step, with every
   object the script allocated so far, live or not. *)
let run_script ?(probe = fun _ _ -> ()) s =
  let config =
    {
      Heap.default_config with
      Heap.mode = s.mode;
      pause_budget_words = s.budget;
      promote_after = s.promote_after;
      nursery_pages = s.nursery_pages;
      all_interior = s.all_interior;
    }
  in
  let h = Heap.create ~config () in
  let objs = ref [||] and roots = ref [] in
  let root_values () =
    List.map (fun i -> fst !objs.(i) + (i mod 3)) !roots
  in
  (* the root values as the VM passes them: in order, one array per
     frame (three registers each here) *)
  let rec frames = function
    | a :: b :: c :: rest -> [| a; b; c |] :: frames rest
    | rest -> [ Array.of_list rest ]
  in
  List.iteri
    (fun k op ->
      let what = Printf.sprintf "op %d (%s)" k (print_op op) in
      match op with
      | Alloc (n, kind) ->
          let a = Heap.alloc ~kind h n in
          objs := Array.append !objs [| (a, n) |];
          (* the newest object is a root; at most 16 roots are kept *)
          roots :=
            (Array.length !objs - 1) :: List.filteri (fun j _ -> j < 15) !roots
      | Store (s, f, d, off) ->
          let len = Array.length !objs in
          if len > 0 then begin
            let src, n = !objs.(s mod len) in
            if n >= 8 && Heap.valid_access h src 8 then begin
              let addr = src + (8 * (f mod (n / 8))) in
              let v =
                if d < 0 then off
                else
                  let dst, dn = !objs.(d mod len) in
                  dst + (off mod (dn + 1))
              in
              Heap.note_store h addr 8;
              Mem.store_word h.Heap.mem addr v
            end
          end
      | Drop i -> (
          match !roots with
          | [] -> ()
          | rs ->
              let j = i mod List.length rs in
              roots := List.filteri (fun k _ -> k <> j) rs)
      | Collect minor ->
          let m = snapshot h in
          let values = root_values () in
          ignore
            (Heap.collect
               ~generation:(if minor then Heap.Minor else Heap.Major)
               ~extra_roots:(frames values) h);
          r_collect m ~minor ~roots:values;
          agree what m h;
          probe h !objs
      | Step when s.mode = Heap.Inc ->
          let m = snapshot h in
          let values = root_values () in
          let spent = Heap.step ~extra_roots:(frames values) h in
          let model_spent = r_step m ~nroots:(List.length values) h in
          agree what m h;
          if spent <> model_spent then
            QCheck.Test.fail_reportf "%s: step did %d words, model %d" what
              spent model_spent;
          probe h !objs
      | Step ->
          let m = snapshot h in
          let values = root_values () in
          ignore
            (Heap.collect ~generation:Heap.Minor
               ~extra_roots:(frames values) h);
          r_collect m ~minor:true ~roots:values;
          agree what m h;
          probe h !objs)
    s.ops;
  true

let prop_reference_model =
  QCheck.Test.make ~count:1000
    ~name:"collector == slot-at-a-time reference model (stw, gen, inc)"
    (QCheck.make ~print:print_script script_gen)
    (run_script ?probe:None)

(* Every invariant {!Heap.check_integrity} knows, the aging blocks'
   young-slot maps among them, holds after each collection and step of
   the model's scripts, in every mode.  The remembered-set rule is the
   exception: a script may store a pointer to a dead object, and once a
   young object reuses that slot the stale word reads as an old-to-young
   reference on a card the barrier never had reason to keep dirty. *)
let prop_integrity_of_scripts =
  let probe h _ =
    match
      List.filter
        (fun v -> v.Heap.v_rule <> "remembered-set")
        (Heap.check_integrity h)
    with
    | [] -> ()
    | vs ->
        QCheck.Test.fail_reportf "violations: %s"
          (String.concat "; "
             (List.map (fun v -> Format.asprintf "%a" Heap.pp_violation v) vs))
  in
  QCheck.Test.make ~count:300
    ~name:"integrity after every collection of the model's scripts"
    (QCheck.make ~print:print_script script_gen)
    (run_script ~probe)

(* --- one access rule --------------------------------------------------- *)

let sign_extend width v =
  if width = 8 then v
  else
    let s = Sys.int_size - (8 * width) in
    (v lsl s) asr s

(* The allocated slot a heap word [v] plausibly points into, as the
   marker reads it. *)
let pointee h v =
  match Heap.block_at h v with
  | None -> None
  | Some blk -> (
      match Block.slot_of_addr blk v with
      | Some i
        when Block.is_allocated blk i
             && (h.Heap.config.Heap.all_interior || v = Block.slot_addr blk i)
        ->
          Some (blk, i)
      | Some _ | None -> None)

(* Every checked access agrees with [valid_access] and with the arena:
   [Heap.load] returns what [Mem] holds, [Heap.store] leaves there what
   it wrote after its barrier ran (while a cycle marks, every object an
   overwritten word pointed into is marked; on a generational heap, the
   card of an old page is dirty), and a rejected access raises
   [Invalid_access] naming itself before the barrier and changes no
   byte.  The probes sit around each object the script allocated: live,
   swept, reused or on a reclaimed page, at its base, its last requested
   byte, the slack byte, the last bytes of its slot and across the
   slot's end. *)
let probe_accesses h objs =
  let check a width =
    let valid = Heap.valid_access h a width in
    let in_arena = Mem.in_bounds h.Heap.mem a width in
    let held () = if in_arena then Mem.load h.Heap.mem ~width a else 0 in
    let fail what = QCheck.Test.fail_reportf "%s of %d at %#x (valid_access %b)" what width a valid in
    (match Heap.load h ~width a with
    | v -> if (not valid) || v <> held () then fail "load"
    | exception Heap.Invalid_access { store; addr; len } ->
        if valid || store || addr <> a || len <> width then fail "rejected load");
    let before = held () and grays = h.Heap.stats.Heap.barrier_grays in
    let doomed =
      if (not valid) || h.Heap.phase <> Heap.Marking then []
      else
        List.filter_map
          (fun w ->
            if Mem.in_bounds h.Heap.mem w 8 then
              pointee h (Mem.load_word h.Heap.mem w)
            else None)
          (List.init (((a + width - 1) / 8) - (a / 8) + 1) (fun k -> (a / 8 * 8) + (8 * k)))
    in
    let v = (a * 7919) lxor (width lsl 40) in
    match Heap.store h ~width a v with
    | () ->
        if (not valid) || held () <> sign_extend width v then fail "store";
        List.iter
          (fun ((blk : Block.t), i) ->
            if Bytes.get blk.Block.blk_mark i = '\000' then
              fail "store left an overwritten pointee unmarked")
          doomed;
        (match Heap.block_at h a with
        | Some blk
          when h.Heap.config.Heap.mode = Heap.Gen && Block.collectable blk
               && (not blk.Block.blk_young) && not blk.Block.blk_aging ->
            if not (Heap.page_is_dirty h a) then fail "store left its card clean"
        | Some _ | None -> ())
    | exception Heap.Invalid_access { store; addr; len } ->
        if
          valid || (not store) || addr <> a || len <> width || held () <> before
          || h.Heap.stats.Heap.barrier_grays <> grays
        then fail "rejected store"
  in
  let around (a, n) =
    let slot =
      if n + 1 <= Heap.max_small then Heap.class_size (n + 1)
      else (n + 1 + Mem.page_size - 1) / Mem.page_size * Mem.page_size
    in
    List.iter
      (fun off -> List.iter (check (a + off)) [ 1; 2; 4; 8 ])
      [ -1; 0; n - 1; n; slot - 8; slot - 4; slot - 1; slot ]
  in
  Array.iter around objs;
  List.iter (fun a -> List.iter (check a) [ 1; 8 ]) [ -8; 0; 8; Mem.page_size - 1; max_int - 8 ]

let prop_one_access_rule =
  QCheck.Test.make ~count:300
    ~name:"load and store succeed exactly where valid_access holds"
    (QCheck.make ~print:print_script script_gen)
    (run_script ~probe:probe_accesses)

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
    QCheck_alcotest.to_alcotest prop_reference_model;
    QCheck_alcotest.to_alcotest prop_integrity_of_scripts;
    QCheck_alcotest.to_alcotest prop_one_access_rule;
  ]
