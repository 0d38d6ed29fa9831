(** Conservative mark-sweep collector in the style of [Boehm95].

    - size-class allocator over uniform-object pages ({!Block}): each
      (class, kind) reuses its freed slots and fills its newest page by
      a bump cursor;
    - every object is allocated with at least one extra byte, so that
      legal one-past-the-end pointers still map to the right object
      (paper, "Source Checking": "we handle [one past the end] by
      allocating all heap objects with at least one extra byte");
    - conservative root scanning: any word whose value lies inside an
      allocated heap object (interior pointers included) marks that object;
    - swept objects are poisoned so that the VM detects premature
      reclamation as a hard fault — this is how the hazard experiments
      observe GC-unsafety;
    - [GC_base] / [GC_same_obj] / [GC_pre_incr] / [GC_post_incr]: the
      checking primitives of the paper's debugging mode;
    - an optional generational mode: objects carry a per-slot age, minor
      collections scan only young objects plus roots and the dirty cards
      of a page-granularity remembered set, and survivors are promoted
      after [promote_after] minor cycles.  Stop-the-world full collection
      remains the default and is bit-identical to the non-generational
      collector;
    - a page-segregated bump-pointer nursery, the generational mode's
      alone: new small collectable objects are carved off young
      single-page blocks by a bump cursor (no per-object zeroing — pages
      are zeroed when claimed).  Every young slot, on a nursery page or
      reused in an old block, is in its block's young-slot map, and one
      minor sweep visits exactly those: wholly dead nursery pages return
      to the reclaim pool, and pages whose objects all reach
      [promote_after] are promoted in place (the collector is
      conservative, so objects can never move).  The remembered set then
      tracks only old-generation pages;
    - an incremental mode: a snapshot-at-the-beginning cycle sliced into
      budget-bounded {!step}s at the embedder's GC points, kept sound by
      the store barrier (it shades overwritten values while marking) and
      by allocate-black.  It has no generations and allocates like the
      stop-the-world mode.

    One engine serves every mode: one gray stack, one {!shade} rule
    (shared with the barrier), one {!scan_roots}, one budgeted {!drain}
    (stop-the-world passes [max_int]), one {!free_slot} and one
    {!complete_collection}. *)

type gc_mode = Stw | Gen | Inc

let gc_mode_name = function Stw -> "stw" | Gen -> "gen" | Inc -> "inc"

let gc_mode_of_string = function
  | "stw" -> Some Stw
  | "gen" -> Some Gen
  | "inc" | "incremental" -> Some Inc
  | _ -> None

type generation = Minor | Major

type oom_policy = Trap | Collect_expand

let oom_policy_name = function
  | Trap -> "trap"
  | Collect_expand -> "collect-expand"

let oom_policy_of_string = function
  | "trap" -> Some Trap
  | "collect-expand" | "collect_expand" -> Some Collect_expand
  | _ -> None

(* The collector's knobs, and the only place their defaults are
   written ({!default_config}).  Immutable: an embedder's config record
   (the VM's [vm_heap]) can be copied and updated freely without two
   heaps sharing one mutable record. *)
type config = {
  all_interior : bool;
      (** recognize interior pointers everywhere (the paper's default
          collector configuration); when false, interior pointers are valid
          only from roots — the "Extensions" section mode *)
  gc_threshold : int;  (** collect after this many bytes allocated *)
  mode : gc_mode;
      (** [Gen] enables minor collections, the store barrier's dirty
          cards and the bump-pointer nursery *)
  minor_threshold : int;
      (** bytes allocated between minor collections (generational mode) *)
  promote_after : int;
      (** minor collections an object must survive to become old *)
  heap_limit_words : int;
      (** hard arena ceiling in words; [0] (the default) is unlimited *)
  oom_policy : oom_policy;
      (** what an allocation failure does: raise {!Heap_exhausted}
          immediately ([Trap]), or run an emergency full collection,
          retry, grow within the limit, and only then raise
          ([Collect_expand], Boehm's collect-then-expand) *)
  pause_budget_words : int;
      (** words of collector work (scanning + sweeping) one incremental
          step may perform before yielding back to the mutator; {!step}
          treats anything below 1 as 1 *)
  nursery_pages : int;
      (** pages of bump-allocated nursery a generational heap may open
          between collections before a minor cycle is due (positive) *)
  failpoints : Failpoint.t;
      (** injected allocation failures (chaos harness); [Never] costs
          one branch per allocation *)
}

type stats = {
  mutable collections : int;
  mutable minor_collections : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable words_scanned : int;
  mutable base_lookups : int;
  mutable same_obj_checks : int;
  mutable check_failures : int;
  mutable promoted : int;
  mutable cards_scanned : int;
  mutable emergency_collections : int;
  mutable injected_failures : int;
  mutable increments : int;
  mutable final_marks : int;
  mutable barrier_grays : int;
  mutable budget_overruns : int;
  mutable inc_max_pause_words : int;
  mutable abandoned_cycles : int;
}

(** Where an incremental cycle stands.  [Idle] outside a cycle;
    [Marking] while gray ranges remain to drain; [Sweeping] while swept
    blocks remain.  Only {!step} leaves it non-[Idle]. *)
type phase = Idle | Marking | Sweeping

type t = {
  mem : Mem.t;
  map : Page_map.t;
  free_lists : int list ref array;
      (** free slot addresses of each (class size, kind), indexed by
          {!class_slot} *)
  mutable large_blocks : Block.t list;
  mutable all_blocks : Block.t list;  (** every block ever created *)
  mutable config : config;
      (** replaced whole, never edited in place (tests vary the pause
          budget between steps) *)
  stats : stats;
  mutable since_gc : int;
      (** live-growth estimate driving major collections: raw bytes
          allocated, credited with bytes reclaimed by minor collections
          (Boehm-style), reset by a full collection *)
  mutable since_minor : int;  (** bytes allocated since any collection *)
  mutable dirty : Bytes.t;
      (** remembered set: one byte per arena page (indexed by
          [addr lsr Mem.page_bits]), set by {!note_store} *)
  mutable on_free : (addr:int -> bytes:int -> unit) option;
      (** observer called for every object the sweeper reclaims *)
  mutable on_oom : (unit -> unit) option;
      (** emergency-collection hook: the embedder (the VM) installs a
          closure that collects with its full root set; [None] falls
          back to collecting over the uncollectable blocks only *)
  mutable free_pages : (int * int) list;
      (** reclaim pool: [(start, pages)] runs of pages retired from
          fully-empty blocks by the emergency path and from wholly dead
          nursery pages, sorted by start and coalesced; always empty on
          limit-free stop-the-world executions *)
  mutable phase : phase;
      (** incremental-cycle phase; [Idle] unless a {!step} cycle is in
          flight *)
  mutable gray : (int * int) list;
      (** the mark stack: gray ranges [start, stop) still to scan, with
          partial push-back when a budget expires mid-range *)
  mutable sweep_pending : Block.t list;
      (** blocks the sweep has yet to visit *)
  mutable sweep_cursor : int;
      (** next slot to examine in the head of [sweep_pending] — lets a
          sweep slice stop mid-block exactly at the pause budget *)
  mutable young_blocks : Block.t list;
      (** nursery: the young single-page blocks currently in service
          (open bump targets plus sealed survivor cohorts) *)
  mutable aging_blocks : Block.t list;
      (** old-generation collectable blocks that may hold still-young
          slots (free-list reuse restarts a slot at age 0; large objects
          are born young), so a minor sweep can visit exactly the blocks
          where young objects can live, and in each only the slots its
          young-slot map holds *)
  cursors : Block.t option array;
      (** by {!class_slot}: the block whose never-used slots the bump
          allocator is handing out *)
  mutable nursery_opened : int;
      (** young pages opened since the last collection — the nursery
          occupancy trigger for minor cycles *)
  mutable dirty_index : int list;
      (** indices of pages whose card byte may be set, so card scans and
          {!recompute_cards} walk the dirty subset instead of the whole
          arena; may hold stale (since-cleaned) entries, which readers
          skip by re-checking the byte *)
}

exception Check_failure of string
(** raised by GC_same_obj and friends in checked mode *)

exception Heap_exhausted of string
(** the structured out-of-memory outcome: the heap limit blocks a
    needed growth (after emergency collection and retry under
    [Collect_expand]), or an injected failure fires under [Trap] *)

(* ------------------------------------------------------------------ *)
(* Size classes                                                        *)
(* ------------------------------------------------------------------ *)

let granule = 16

let max_small = 2048

(* Class sizes: multiples of 16 up to 256, then powers of two to 2048. *)
let class_size n =
  if n <= 256 then (n + granule - 1) / granule * granule
  else
    let rec pow2 c = if c >= n then c else pow2 (c * 2) in
    pow2 512

(* Every (small class, kind) pair has one dense index: 16 granule
   classes, then 512, 1024 and 2048, times the four block kinds.  The
   allocator's per-class state is an array read at this index, so an
   allocation hashes nothing. *)
let class_slots = 19 * 4

let class_slot cls kind =
  let c =
    if cls <= 256 then (cls / granule) - 1
    else if cls = 512 then 16
    else if cls = 1024 then 17
    else 18
  in
  (c * 4)
  +
  match kind with
  | Block.Normal -> 0
  | Block.Atomic -> 1
  | Block.Uncollectable -> 2
  | Block.Stack -> 3

(* The (class size, kind) of an index: the inverse of {!class_slot}. *)
let slot_class k =
  let c = k / 4 in
  ( (if c < 16 then (c + 1) * granule else 512 lsl (c - 16)),
    match k land 3 with
    | 0 -> Block.Normal
    | 1 -> Block.Atomic
    | 2 -> Block.Uncollectable
    | _ -> Block.Stack )

let default_config =
  {
    all_interior = true;
    gc_threshold = 256 * 1024;
    mode = Stw;
    minor_threshold = 32 * 1024;
    promote_after = 2;
    heap_limit_words = 0;
    oom_policy = Collect_expand;
    pause_budget_words = 1024;
    nursery_pages = 8;
    failpoints = Failpoint.Never;
  }

let create ?(config = default_config) () =
  {
    mem = Mem.create ();
    map = Page_map.create ();
    free_lists = Array.init class_slots (fun _ -> ref []);
    large_blocks = [];
    all_blocks = [];
    config;
    stats =
      {
        collections = 0;
        minor_collections = 0;
        bytes_allocated = 0;
        objects_allocated = 0;
        objects_freed = 0;
        bytes_freed = 0;
        words_scanned = 0;
        base_lookups = 0;
        same_obj_checks = 0;
        check_failures = 0;
        promoted = 0;
        cards_scanned = 0;
        emergency_collections = 0;
        injected_failures = 0;
        increments = 0;
        final_marks = 0;
        barrier_grays = 0;
        budget_overruns = 0;
        inc_max_pause_words = 0;
        abandoned_cycles = 0;
      };
    since_gc = 0;
    since_minor = 0;
    dirty = Bytes.create 0;
    on_free = None;
    on_oom = None;
    free_pages = [];
    phase = Idle;
    gray = [];
    sweep_pending = [];
    sweep_cursor = 0;
    young_blocks = [];
    aging_blocks = [];
    cursors = Array.make class_slots None;
    nursery_opened = 0;
    dirty_index = [];
  }

let generational t = t.config.mode = Gen

(* ------------------------------------------------------------------ *)
(* The page-map lookup, the slot rule and the arena word               *)
(* ------------------------------------------------------------------ *)

(* These are read here, not through {!Page_map} and {!Mem} calls: a
   checked access and every scanned word make them, and the dev build's
   [-opaque] would keep such calls from being inlined. *)

(** The block containing [addr], if [addr] is on a heap page: two array
    reads of the height-2 page map, no search.  The one address-to-block
    lookup of the heap, its collector and its checked accesses. *)
let[@inline] block_at t addr =
  if addr < 0 then None
  else
    let page = addr lsr Mem.page_bits in
    let top = t.map.Page_map.top in
    let hi = page lsr Page_map.level2_bits in
    if hi >= Array.length top then None
    else
      match Array.unsafe_get top hi with
      | None -> None
      | Some l2 ->
          Array.unsafe_get l2 (page land ((1 lsl Page_map.level2_bits) - 1))

(* The one slot rule: the slot of [blk] whose allocated object holds all
   of [addr, addr+len), or -1.  An object's extent is its rounded slot,
   so the paper's extra byte makes one-past-the-end addresses resolve. *)
let[@inline] slot_holding (blk : Block.t) addr len =
  let off = addr - blk.Block.blk_start in
  if off < 0 then -1
  else
    let size = blk.Block.blk_obj_size in
    let i = off / size in
    if
      i < blk.Block.blk_count
      && Bytes.unsafe_get blk.Block.blk_alloc i <> '\000'
      && off + len <= (i + 1) * size
    then i
    else -1

(* The arena word at [a], which the caller knows lies inside it. *)
let[@inline] word_at t a = Int64.to_int (Bytes.get_int64_le t.mem.Mem.data a)

(* The block-kind tests, read in place for the same reason: the
   collector's loops make them per block and per shaded word. *)
let[@inline] collectable (blk : Block.t) =
  match blk.Block.blk_kind with
  | Block.Normal | Block.Atomic -> true
  | Block.Uncollectable | Block.Stack -> false

let[@inline] scanned (blk : Block.t) =
  match blk.Block.blk_kind with
  | Block.Normal | Block.Uncollectable -> true
  | Block.Atomic | Block.Stack -> false

(* ------------------------------------------------------------------ *)
(* Remembered set: dirty cards at page granularity                     *)
(* ------------------------------------------------------------------ *)

let page_index addr = addr lsr Mem.page_bits

let page_is_dirty t addr =
  let p = page_index addr in
  p < Bytes.length t.dirty && Bytes.get t.dirty p <> '\000'

let mark_page_dirty t p =
  if p >= Bytes.length t.dirty then begin
    let grown =
      Bytes.make (Int.max (p + 1) ((2 * Bytes.length t.dirty) + 64)) '\000'
    in
    Bytes.blit t.dirty 0 grown 0 (Bytes.length t.dirty);
    t.dirty <- grown
  end;
  (* index a page only on the clean->dirty edge, so the index stays
     duplicate-free between recomputes *)
  if Bytes.get t.dirty p = '\000' then t.dirty_index <- p :: t.dirty_index;
  Bytes.set t.dirty p '\001'

(* Walk the dirty-page index, visiting each genuinely dirty page once
   (stale and duplicated entries are skipped).  This is what shrinks the
   card scans from O(arena pages) to O(dirty pages).  A visited page's
   card byte reads 2 during the walk, which is how a duplicate entry is
   told apart; [f] may clean the card, and the cards it keeps go back to
   1 afterwards, also when [f] raises. *)
let iter_dirty_pages t f =
  let dirty = t.dirty in
  let restore () =
    List.iter
      (fun p ->
        if p < Bytes.length dirty && Bytes.get dirty p = '\002' then
          Bytes.set dirty p '\001')
      t.dirty_index
  in
  Fun.protect ~finally:restore (fun () ->
      List.iter
        (fun p ->
          if p < Bytes.length dirty && Bytes.get dirty p = '\001' then begin
            Bytes.set dirty p '\002';
            f p
          end)
        t.dirty_index)

(* Is the slot's object old (survived [promote_after] minor cycles)? *)
let[@inline] is_old t (blk : Block.t) i =
  Char.code (Bytes.get blk.Block.blk_age i) >= t.config.promote_after

(* The one pointer test: the slot of [blk] (the block the page map gives
   for [v]) holding the allocated object [v] plausibly points into, or
   -1.  Any value inside an allocated object qualifies when
   [all_interior] is set; otherwise only base pointers qualify, except
   from roots (the "Extensions" mode).  It runs for every scanned word,
   so it reads the block's bytes itself and allocates nothing: the dev
   build's [-opaque] keeps {!Block}'s accessors from being inlined. *)
let[@inline] plausible_slot t ~from_root (blk : Block.t) v =
  let off = v - blk.Block.blk_start in
  if off < 0 then -1
  else
    let size = blk.Block.blk_obj_size in
    let i = off / size in
    if
      i >= blk.Block.blk_count
      || Bytes.unsafe_get blk.Block.blk_alloc i = '\000'
    then -1
    else if t.config.all_interior || from_root || off = i * size then i
    else -1

(* Shade [v] gray: mark the object it plausibly points to and push the
   object's range onto the gray stack when its contents are scanned.
   The one shading rule of the stop-the-world marker, the incremental
   snapshot and marking steps, and the SATB store barrier.  A minor
   cycle collects only the young generation, so old objects are
   implicitly live and never shaded.  Returns whether [v] newly shaded
   an object. *)
let shade t ~minor ~from_root v =
  v >= Mem.page_size
  &&
  match block_at t v with
  | None -> false
  | Some blk ->
      let i = plausible_slot t ~from_root blk v in
      i >= 0
      && Bytes.get blk.Block.blk_mark i = '\000'
      && (not (minor && collectable blk && is_old t blk i))
      && begin
           Bytes.set blk.Block.blk_mark i '\001';
           (if scanned blk then
              let a = blk.Block.blk_start + (i * blk.Block.blk_obj_size) in
              t.gray <- (a, a + blk.Block.blk_obj_size) :: t.gray);
           true
         end

(* Does any byte of [lo, hi] (inclusive, within [blk]) fall in an
   allocated slot of [blk] that is already old? *)
let touches_old_slot t (blk : Block.t) lo hi =
  let start = blk.Block.blk_start and size = blk.Block.blk_obj_size in
  let stop = Int.min (blk.Block.blk_count - 1) ((hi - start) / size) in
  let i = ref ((lo - start) / size) in
  while
    !i <= stop
    && not (Bytes.get blk.Block.blk_alloc !i <> '\000' && is_old t blk !i)
  do
    incr i
  done;
  !i <= stop

(** The store write-barrier: dirty the card of every old-generation page
    a write touches, so the next minor collection rescans it.  Young
    (nursery) pages never need cards, since every minor scans the whole
    nursery; stacks, statics and registers are roots.  Any other
    collectable page the write touches is dirtied outright, with no slot
    or age resolution, so straddling (cross-object) writes are covered
    by construction.  The one exception is an aging block, an old block
    whose freed slots {!alloc} has handed out again as young objects:
    there only a touched allocated slot that is already old dirties the
    page.  Without that probe the initializing stores into every reused
    slot would drag its page into every minor.  The probe is sound
    because the minor sweep that ages a reused slot into the old
    generation dirties the slot's pages.  A single branch when
    generational mode is off; charges no VM cycles either way. *)
let note_store t addr len =
  (* SATB shading runs first: the generational branch below never writes
     memory, but keeping the read of the doomed old values ahead of any
     other bookkeeping makes the before-the-store contract obvious.  The
     aligned walk over-approximates [addr, addr+len) to whole words —
     shading a neighbouring word's value is merely conservative. *)
  (if t.phase = Marking && len > 0 then begin
     (* snapshot-at-the-beginning: a word about to be overwritten may
        hold the last reference to an object reachable when the cycle
        took its snapshot, so it is shaded before the store lands *)
     let a = ref (addr / 8 * 8) in
     let stop = addr + len in
     let limit = t.mem.Mem.brk in
     while !a < stop do
       if
         !a + 8 <= limit
         && shade t ~minor:false ~from_root:false (word_at t !a)
       then t.stats.barrier_grays <- t.stats.barrier_grays + 1;
       a := !a + 8
     done
   end);
  if generational t && len > 0 then begin
    let last = addr + len - 1 in
    for p = page_index addr to page_index last do
      let page_start = p lsl Mem.page_bits in
      match block_at t page_start with
      | Some blk when collectable blk && not blk.Block.blk_young ->
          if
            (not blk.Block.blk_aging)
            || touches_old_slot t blk (Int.max addr page_start)
                 (Int.min last (page_start + Mem.page_size - 1))
          then mark_page_dirty t p
      | Some _ | None -> ()
    done
  end

(** Age of the allocated object at [addr] in minor collections survived
    ([None] outside allocated objects). *)
let slot_age t addr =
  match block_at t addr with
  | None -> None
  | Some blk ->
      let i = slot_holding blk addr 0 in
      if i >= 0 then Some (Block.age blk i) else None

(* ------------------------------------------------------------------ *)
(* Pointer identification                                              *)
(* ------------------------------------------------------------------ *)

(** [base_of t addr] maps any address inside an allocated heap object to the
    object's base address (GC_base).  Returns [None] for addresses outside
    the heap, in free slots, or one-before-the-object. *)
let base_of t addr =
  t.stats.base_lookups <- t.stats.base_lookups + 1;
  match block_at t addr with
  | None -> None
  | Some blk ->
      let i = slot_holding blk addr 0 in
      if i >= 0 then Some (Block.slot_addr blk i) else None

(** Object extent [base, base + rounded size) for a heap address. *)
let extent_of t addr =
  match block_at t addr with
  | None -> None
  | Some blk ->
      let i = slot_holding blk addr 0 in
      if i >= 0 then Some (Block.slot_addr blk i, blk.Block.blk_obj_size)
      else None

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Aligned word walk over [start, stop), as a conservative collector
   does: [word_in_range t a stop] says whether the word at aligned [a]
   is still to be visited.  An unaligned range's last bytes do not fill
   a word: the word holding them is still visited (a pointer's first
   bytes may sit there), provided it lies inside the arena. *)
let first_word start = (start + 7) / 8 * 8

let word_in_range t a stop =
  a < stop && (a + 8 <= stop || a + 8 <= t.mem.Mem.brk)

let iter_range_words t start stop f =
  let a = ref (first_word start) in
  while word_in_range t !a stop do
    f !a (word_at t !a);
    a := !a + 8
  done

(* Is heap word [v] a (conservative) pointer to a young collectable
   object?  Same resolution rules as heap-object scanning. *)
let[@inline] points_young t v =
  v >= Mem.page_size
  &&
  match block_at t v with
  | Some blk ->
      let i = plausible_slot t ~from_root:false blk v in
      i >= 0 && (not (is_old t blk i)) && collectable blk
  | None -> false

(* Scan [start, stop) conservatively, shading every word, until [spent]
   words of work reach [budget]; a range the budget cuts short goes
   back on the gray stack from the first unscanned word.  Every scanned
   word counts in [stats.words_scanned]. *)
let scan_range t ~minor ~from_root ~spent ~budget start stop =
  let a = ref (first_word start) in
  while word_in_range t !a stop && !spent < budget do
    t.stats.words_scanned <- t.stats.words_scanned + 1;
    incr spent;
    ignore (shade t ~minor ~from_root (word_at t !a));
    a := !a + 8
  done;
  if word_in_range t !a stop then t.gray <- (!a, stop) :: t.gray

(* The minor's scan of the dirty card of the page at [page_start], on
   which [blk] lies: every allocated old slot of [blk] overlapping the
   page, clipped to it, scanned in slot order.  One loop over the slots
   that overlap the page; the card stands in for exactly these. *)
let scan_old_slices t ~spent (blk : Block.t) page_start =
  let start = blk.Block.blk_start and size = blk.Block.blk_obj_size in
  let alloc = blk.Block.blk_alloc and age = blk.Block.blk_age in
  let promote_after = t.config.promote_after in
  let page_stop = page_start + Mem.page_size in
  for i =
    Int.max 0 ((page_start - start) / size)
    to Int.min (blk.Block.blk_count - 1) ((page_stop - 1 - start) / size)
  do
    if
      Bytes.unsafe_get alloc i <> '\000'
      && Char.code (Bytes.unsafe_get age i) >= promote_after
    then begin
      let s = start + (i * size) in
      let lo = Int.max s page_start and hi = Int.min (s + size) page_stop in
      if lo < hi then
        scan_range t ~minor:true ~from_root:false ~spent ~budget:max_int lo hi
    end
  done

(* Pop and scan gray ranges until the gray stack is empty or [spent]
   reaches [budget].  Stop-the-world collection drains with [max_int]. *)
let drain t ~minor ~spent ~budget =
  let rec go () =
    match t.gray with
    | (s, e) :: rest when !spent < budget ->
        t.gray <- rest;
        scan_range t ~minor ~from_root:false ~spent ~budget s e;
        go ()
    | _ -> ()
  in
  go ()

(* Root word values: each of [arrays] (the VM's register files) in
   index order, shaded where they lie.  Each costs a word of work but is
   not a scanned heap word. *)
let shade_root_values t ~minor ~spent arrays =
  List.iter
    (fun regs ->
      for i = 0 to Array.length regs - 1 do
        incr spent;
        ignore (shade t ~minor ~from_root:true (Array.unsafe_get regs i))
      done)
    arrays

(* Mark and scan every allocated slot of a root-scanned block.  A
   statics block is mostly free slots, so eight free slots are stepped
   over at once, reading [blk_alloc] eight bytes at a time. *)
let scan_root_block t ~minor ~spent (blk : Block.t) =
  let alloc = blk.Block.blk_alloc and count = blk.Block.blk_count in
  let size = blk.Block.blk_obj_size in
  let i = ref 0 in
  while !i < count do
    let j = !i in
    if j + 8 <= count && Bytes.get_int64_le alloc j = 0L then i := j + 8
    else begin
      if Bytes.get alloc j <> '\000' then begin
        Bytes.set blk.Block.blk_mark j '\001';
        let a = blk.Block.blk_start + (j * size) in
        scan_range t ~minor ~from_root:true ~spent ~budget:max_int a (a + size)
      end;
      i := j + 1
    end
  done

(* The root scan that opens every collection, stop-the-world or
   incremental: clear all marks, then shade the root word values, the
   per-collection ranges (the live stack prefix), every
   object of the root-scanned (uncollectable, statics-like) blocks and,
   on a minor cycle, the old objects on dirty cards — the remembered set
   stands in for the unscanned rest of the old generation.  Atomic: a
   root scan sliced across steps would let a white pointer migrate from
   an unscanned register into an already-black object, which the SATB
   barrier (it shades overwritten values, not stored ones) cannot
   catch. *)
let scan_roots t ~minor ~extra_roots ~extra_ranges ~spent =
  List.iter Block.clear_marks t.all_blocks;
  shade_root_values t ~minor ~spent extra_roots;
  List.iter
    (fun (s, e) ->
      scan_range t ~minor ~from_root:true ~spent ~budget:max_int s e)
    extra_ranges;
  List.iter
    (fun (blk : Block.t) ->
      match blk.Block.blk_kind with
      | Block.Uncollectable -> scan_root_block t ~minor ~spent blk
      | Block.Normal | Block.Atomic | Block.Stack -> ())
    t.all_blocks;
  if minor then
    iter_dirty_pages t (fun p ->
        t.stats.cards_scanned <- t.stats.cards_scanned + 1;
        let page_start = p lsl Mem.page_bits in
        match block_at t page_start with
        | Some blk when collectable blk && scanned blk ->
            scan_old_slices t ~spent blk page_start
        | Some _ | None -> ())

(* Conservatively mark the pages of a slot dirty (used on promotion: the
   freshly old object may hold young pointers on cards that were clean
   while it was young and scanned unconditionally). *)
let dirty_slot_pages t blk i =
  let s = Block.slot_addr blk i in
  for p = page_index s to page_index (s + blk.Block.blk_obj_size - 1) do
    mark_page_dirty t p
  done

(* ------------------------------------------------------------------ *)
(* Reclaim pool plumbing and nursery page lifecycle                    *)
(* ------------------------------------------------------------------ *)

(* A page run leaving service must shed its cards: a pool page reused by
   a fresh block must not be born dirty, dragging its new slots into
   every minor until [recompute_cards] happens to clean it. *)
let clear_cards_in_run t lo pages =
  for p = page_index lo to page_index lo + pages - 1 do
    if p < Bytes.length t.dirty then Bytes.set t.dirty p '\000'
  done

(* Sort and coalesce adjacent pool runs so a multi-page request can be
   carved out of neighbouring single-page retirements. *)
let coalesce_pool t =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.free_pages in
  t.free_pages <-
    List.rev
      (List.fold_left
         (fun acc (s, p) ->
           match acc with
           | (ps, pp) :: rest when ps + (pp * Mem.page_size) = s ->
               (ps, pp + p) :: rest
           | _ -> (s, p) :: acc)
         [] sorted)

let free_list t cls kind = t.free_lists.(class_slot cls kind)

(* Drop the bump cursor if it points at [blk] (the block is sealed,
   promoted or retired). *)
let drop_cursor t blk =
  if blk.Block.blk_obj_size <= max_small then
    let k = class_slot blk.Block.blk_obj_size blk.Block.blk_kind in
    match t.cursors.(k) with
    | Some b when b == blk -> t.cursors.(k) <- None
    | Some _ | None -> ()

let has_allocated (blk : Block.t) =
  let rec from i =
    i < blk.Block.blk_count
    && (Bytes.get blk.Block.blk_alloc i <> '\000' || from (i + 1))
  in
  from 0

(* The free list a freed slot of collectable [blk] joins, looked up once
   per block.  Small-class slots return to their free list; large blocks
   (obj_size > max_small, even single-page ones) stay in [large_blocks]
   for whole-block reuse and must never leak onto a size-class list;
   nursery slots are bump-allocated and never reused in place, so young
   blocks stay off the free lists (their pages are reclaimed or promoted
   whole). *)
let block_free_list t (blk : Block.t) =
  if blk.Block.blk_obj_size <= max_small && not blk.Block.blk_young then
    Some (free_list t blk.Block.blk_obj_size blk.Block.blk_kind)
  else None

(* Take [blk], which holds no allocated object, out of service: no bump
   cursor points at it, the page map forgets it, its listed slots leave
   their free list, and its page run, cards wiped, joins the reclaim
   pool for reuse by any later block of any size class. *)
let retire_block t (blk : Block.t) =
  drop_cursor t blk;
  Page_map.clear_block t.map blk;
  let lo = blk.Block.blk_start and pages = blk.Block.blk_pages in
  (match block_free_list t blk with
  | Some fl ->
      let hi = lo + (pages * Mem.page_size) in
      fl := List.filter (fun a -> a < lo || a >= hi) !fl
  | None -> ());
  clear_cards_in_run t lo pages;
  t.free_pages <- (lo, pages) :: t.free_pages

(* Retire the blocks of [dead] and drop them from every block set, so
   no allocator bookkeeping dangles. *)
let retire_blocks t dead =
  if dead <> [] then begin
    List.iter (retire_block t) dead;
    let kept b = not (List.memq b dead) in
    t.all_blocks <- List.filter kept t.all_blocks;
    t.large_blocks <- List.filter kept t.large_blocks;
    t.young_blocks <- List.filter kept t.young_blocks;
    t.aging_blocks <- List.filter kept t.aging_blocks;
    coalesce_pool t
  end

(* Promote a surviving nursery page in place: the block joins the old
   generation (the collector is conservative, so survivors cannot be
   copied out), and its dead and never-bumped slots join the size-class
   free lists like any other old block's.  Every free slot is then
   listed, so the cursor moves to the end.  The caller takes it out of
   [young_blocks]. *)
let promote_young_block t blk =
  drop_cursor t blk;
  blk.Block.blk_young <- false;
  blk.Block.blk_bump <- blk.Block.blk_count;
  let fl = free_list t blk.Block.blk_obj_size blk.Block.blk_kind in
  for i = blk.Block.blk_count - 1 downto 0 do
    if Bytes.get blk.Block.blk_alloc i = '\000' then begin
      Bytes.set blk.Block.blk_age i '\000';
      fl := (blk.Block.blk_start + (i * blk.Block.blk_obj_size)) :: !fl
    end
  done

(* Seal the nursery's bump cursors and return wholly dead nursery pages
   to the pool.  Runs after every collection of a generational heap, so
   a completed cycle always leaves the nursery parseable: open bump
   regions never survive a collection, and dead pages never linger.  The
   cursors of old (uncollectable and stack) blocks stay open. *)
let retire_dead_young t =
  List.iter (drop_cursor t) t.young_blocks;
  t.nursery_opened <- 0;
  retire_blocks t
    (List.filter (fun blk -> not (has_allocated blk)) t.young_blocks)

(* Free slot [i] of a collectable block onto [fl], its
   {!block_free_list}: the one routine both sweepers reclaim through.
   The slot restarts at age 0 (whatever reallocates it gets a genuinely
   young object), leaves the young-slot map and is poisoned, so the VM
   detects a premature reclamation as a hard fault. *)
let free_slot t (blk : Block.t) i fl =
  let bytes = blk.Block.blk_req.(i) in
  Bytes.set blk.Block.blk_alloc i '\000';
  Bytes.set blk.Block.blk_age i '\000';
  Bytes.set blk.Block.blk_young_slots i '\000';
  t.stats.objects_freed <- t.stats.objects_freed + 1;
  t.stats.bytes_freed <- t.stats.bytes_freed + bytes;
  let addr = blk.Block.blk_start + (i * blk.Block.blk_obj_size) in
  (match t.on_free with Some f -> f ~addr ~bytes | None -> ());
  Mem.fill t.mem addr blk.Block.blk_obj_size '\xDB';
  match fl with Some fl -> fl := addr :: !fl | None -> ()

(* The full sweep: free every unmarked allocated slot of the blocks in
   [sweep_pending], resuming mid-block at [sweep_cursor], until [spent]
   reaches [budget].  Examining a slot costs a word and freeing it costs
   its words too; a slice stops before a slot that might not fit, so it
   never overruns, yet always takes one slot when fresh, for progress
   under tiny budgets.  A slot allocated behind the cursor during an
   incremental sweep was born black (see {!alloc}) and is never freed.
   Stop-the-world collection sweeps with [max_int].

   Eight slots whose allocated bytes are all marked (or free) are
   stepped over at once, reading [blk_alloc] and [blk_mark] eight bytes
   at a time, when the budget admits all eight: that adds to [spent]
   exactly what eight single steps add, so every slice stops at the same
   slot. *)
let sweep_slice t ~spent ~budget =
  let continue_ = ref true in
  while !continue_ && !spent < budget do
    match t.sweep_pending with
    | [] -> continue_ := false
    | blk :: rest ->
        let count = blk.Block.blk_count in
        let words = blk.Block.blk_obj_size / 8 in
        let worst = 1 + words in
        let i = ref t.sweep_cursor in
        if collectable blk then begin
          let alloc = blk.Block.blk_alloc and mark = blk.Block.blk_mark in
          let fl = block_free_list t blk in
          while !i < count && (!spent + worst <= budget || !spent = 0) do
            let j = !i in
            if
              j + 8 <= count
              && !spent + 7 + worst <= budget
              &&
              let a = Bytes.get_int64_le alloc j in
              Int64.logand a (Bytes.get_int64_le mark j) = a
            then begin
              spent := !spent + 8;
              i := j + 8
            end
            else begin
              incr spent;
              if Bytes.get alloc j <> '\000' && Bytes.get mark j = '\000'
              then begin
                free_slot t blk j fl;
                spent := !spent + words
              end;
              i := j + 1
            end
          done
        end
        else i := count;
        if !i >= count then begin
          t.sweep_pending <- rest;
          t.sweep_cursor <- 0
        end
        else begin
          t.sweep_cursor <- !i;
          continue_ := false
        end
  done

let start_sweep t =
  t.sweep_pending <- t.all_blocks;
  t.sweep_cursor <- 0

(* The minor sweep of one block, a nursery page or an aging block.  Its
   young-slot map holds exactly its young slots, the only ones a minor
   collects, so the map is read eight slots at a time and only the slots
   set there are visited, in ascending order: the freed slots reach the
   free list in the order a walk of every slot would push them.  An
   unmarked young object is freed; a marked one survives one minor cycle
   older and, once it has survived [promote_after], leaves the map,
   promoted, with its pages dirtied.  Returns whether a young slot is
   left. *)
let sweep_young_slots t (blk : Block.t) =
  let promote_after = t.config.promote_after in
  let young = blk.Block.blk_young_slots and age = blk.Block.blk_age in
  let mark = blk.Block.blk_mark and count = blk.Block.blk_count in
  let fl = block_free_list t blk in
  let left = ref false and i = ref 0 in
  while !i < count do
    let j = !i in
    if j + 8 <= count && Bytes.get_int64_le young j = 0L then i := j + 8
    else begin
      if Bytes.get young j <> '\000' then
        if Bytes.get mark j = '\000' then free_slot t blk j fl
        else begin
          let a = Int.min 255 (Char.code (Bytes.get age j) + 1) in
          Bytes.set age j (Char.unsafe_chr a);
          if a >= promote_after then begin
            Bytes.set young j '\000';
            t.stats.promoted <- t.stats.promoted + 1;
            dirty_slot_pages t blk j
          end
          else left := true
        end;
      i := j + 1
    end
  done;
  !left

(* The minor sweep: young objects live only on the nursery pages and in
   the aging blocks, so it sweeps those ({!sweep_young_slots}), the aging
   blocks first.  A block left with no young slot acts on it: an aging
   block drops out of the aging set, and a nursery page is promoted in
   place if anything on it survived and returned to the pool if
   nothing did. *)
let sweep_minor t =
  t.aging_blocks <-
    List.filter
      (fun blk ->
        let left = sweep_young_slots t blk in
        if not left then blk.Block.blk_aging <- false;
        left)
      t.aging_blocks;
  let dead = ref [] in
  t.young_blocks <-
    List.filter
      (fun blk ->
        let left = sweep_young_slots t blk in
        if not left then
          if has_allocated blk then promote_young_block t blk
          else dead := blk :: !dead;
        left)
      t.young_blocks;
  retire_blocks t !dead

(* Does an allocated old slot of [blk] overlapping the page at
   [page_start] hold, on that page, a pointer to a young collectable
   object?  One loop over the slots that overlap the page, reading each
   old one's words up to the first such pointer. *)
let old_slices_point_young t (blk : Block.t) page_start =
  let start = blk.Block.blk_start and size = blk.Block.blk_obj_size in
  let alloc = blk.Block.blk_alloc and age = blk.Block.blk_age in
  let promote_after = t.config.promote_after in
  let page_stop = page_start + Mem.page_size in
  let last =
    Int.min (blk.Block.blk_count - 1) ((page_stop - 1 - start) / size)
  in
  let found = ref false and i = ref (Int.max 0 ((page_start - start) / size)) in
  while (not !found) && !i <= last do
    let j = !i in
    if
      Bytes.unsafe_get alloc j <> '\000'
      && Char.code (Bytes.unsafe_get age j) >= promote_after
    then begin
      let s = start + (j * size) in
      let hi = Int.min (s + size) page_stop in
      let a = ref (first_word (Int.max s page_start)) in
      while (not !found) && word_in_range t !a hi do
        found := points_young t (word_at t !a);
        a := !a + 8
      done
    end;
    i := j + 1
  done;
  !found

(* Clean every dirty card that no longer holds an old→young reference.
   Keeping exactly the cards that do maintains remembered-set
   completeness between collections: stores dirty their cards eagerly and
   ages only ever increase, so a young object's address can reach a
   clean card only through a store (barrier) or a promotion (which
   dirties the promoted slot's pages).  Each dirty card's old slices are
   read again, each up to its first young reference, and not taken from
   what the minor's mark saw: a stale word can come to point at a freed
   slot that a young object reuses, with no store, and a card dirty for
   any reason must then be kept.  {!old_slices_point_young} reads them in
   one loop. *)
let recompute_cards t =
  let retained = ref [] in
  iter_dirty_pages t (fun p ->
      let page_start = p lsl Mem.page_bits in
      let needed =
        match block_at t page_start with
        | Some blk
          when collectable blk && scanned blk && not blk.Block.blk_young ->
            old_slices_point_young t blk page_start
        | Some _ | None -> false
      in
      if needed then retained := p :: !retained
      else Bytes.set t.dirty p '\000');
  t.dirty_index <- !retained

(* Every finished collection, stop-the-world or incremental, ends here.
   A minor cycle credits the bytes it reclaimed against the major
   trigger (Boehm-style live growth: a major collection is due when the
   heap has *grown* by [gc_threshold] bytes); anything else resets it.
   On a generational heap the bump cursors are sealed (a nursery page's
   objects share one allocation window, so they age together and are
   promoted together) and dead nursery pages return to the pool, so the
   next cycle can always parse the nursery. *)
let complete_collection t ~minor ~freed_bytes =
  t.phase <- Idle;
  t.stats.collections <- t.stats.collections + 1;
  if minor then begin
    t.stats.minor_collections <- t.stats.minor_collections + 1;
    t.since_gc <- Int.max 0 (t.since_gc - freed_bytes)
  end
  else t.since_gc <- 0;
  t.since_minor <- 0;
  if generational t then begin
    retire_dead_young t;
    recompute_cards t
  end

(** Run a collection.  [extra_roots] are arrays of word values scanned
    in addition to the root-scanned blocks — the VM passes its register
    files, innermost frame first.
    [generation] defaults to [Major] (a full stop-the-world cycle);
    [Minor] is honoured only when the heap is generational.  Any
    in-flight incremental cycle is soundly abandoned first (mark bits
    are left as they are; the root scan clears them): emergency,
    explicit and forced collections must behave exactly as on a
    stop-the-world heap. *)
let collect ?(generation = Major) ?(extra_roots = []) ?(extra_ranges = []) t =
  if t.phase <> Idle then begin
    t.phase <- Idle;
    t.gray <- [];
    t.sweep_pending <- [];
    t.stats.abandoned_cycles <- t.stats.abandoned_cycles + 1
  end;
  let minor = generation = Minor && generational t in
  let freed = t.stats.objects_freed and freed_bytes = t.stats.bytes_freed in
  let spent = ref 0 in
  scan_roots t ~minor ~extra_roots ~extra_ranges ~spent;
  drain t ~minor ~spent ~budget:max_int;
  if minor then sweep_minor t
  else begin
    start_sweep t;
    sweep_slice t ~spent ~budget:max_int
  end;
  complete_collection t ~minor ~freed_bytes:(t.stats.bytes_freed - freed_bytes);
  t.stats.objects_freed - freed

(** Is an incremental cycle in flight? *)
let active t = t.phase <> Idle

(** One increment of the incremental snapshot-at-the-beginning cycle, at
    most [config.pause_budget_words] words of collector work: on an idle
    heap the atomic root scan; while marking, a budgeted {!drain} and,
    once the gray stack empties within budget, the atomic final mark
    (the root *values* are re-shaded — heap, statics and stack stores
    are covered by the SATB barrier for the whole cycle, so only the
    barrier-free register file can hold pointers the snapshot missed —
    and the gray stack drained to empty); while sweeping, a budgeted
    {!sweep_slice}.  Mark bits are monotone within a cycle and objects
    allocated during it are born black, so finalization terminates.
    Returns the words of work performed. *)
let step ?(extra_roots = []) ?(extra_ranges = []) t =
  let budget = Int.max 1 t.config.pause_budget_words in
  let spent = ref 0 in
  if t.phase = Idle then begin
    scan_roots t ~minor:false ~extra_roots ~extra_ranges ~spent;
    t.phase <- Marking
  end;
  if t.phase = Marking then begin
    drain t ~minor:false ~spent ~budget;
    if t.gray = [] && !spent < budget then begin
      t.stats.final_marks <- t.stats.final_marks + 1;
      shade_root_values t ~minor:false ~spent extra_roots;
      drain t ~minor:false ~spent ~budget:max_int;
      t.phase <- Sweeping;
      start_sweep t
    end
  end;
  if t.phase = Sweeping then begin
    sweep_slice t ~spent ~budget;
    if t.sweep_pending = [] then
      complete_collection t ~minor:false ~freed_bytes:0
  end;
  t.stats.increments <- t.stats.increments + 1;
  if !spent > budget then
    t.stats.budget_overruns <- t.stats.budget_overruns + 1;
  t.stats.inc_max_pause_words <- Int.max t.stats.inc_max_pause_words !spent;
  !spent

(** Drive {!step} until the in-flight cycle (if any) completes. *)
let finish ?extra_roots ?extra_ranges t =
  while active t do
    ignore (step ?extra_roots ?extra_ranges t)
  done

(** Should the allocator trigger a (major) collection? *)
let should_collect t = t.since_gc >= t.config.gc_threshold

(** Should the allocator trigger a minor collection?  Never true outside
    generational mode.  Filling the configured number of nursery pages is
    also a trigger: the minor cost tracks nursery occupancy, not just
    bytes. *)
let should_collect_minor t =
  generational t
  && (t.since_minor >= t.config.minor_threshold
     || t.nursery_opened >= t.config.nursery_pages)

(* ------------------------------------------------------------------ *)
(* Allocation (under the heap ceiling)                                 *)
(* ------------------------------------------------------------------ *)

let heap_limit_bytes t =
  if t.config.heap_limit_words <= 0 then max_int
  else t.config.heap_limit_words * 8

(* Would growing the arena by [pages] fresh pages overrun the ceiling? *)
let growth_exceeds_limit t pages =
  Mem.limit t.mem + (pages * Mem.page_size) > heap_limit_bytes t

(* Retire every collectable block with no live slot ({!retire_block}).
   This is what lets an emergency collection rescue a *large* allocation
   whose pages are tied up in drained small-class blocks — without it,
   large requests can only reuse an exact-size freed large block, and
   the collect-expand policy would be no stronger than trap for them.
   Runs only on the emergency path, so limit-free executions never see
   it. *)
let reclaim_empty_blocks t =
  retire_blocks t
    (List.filter
       (fun blk -> collectable blk && not (has_allocated blk))
       t.all_blocks)

(* Best-fit carve from the reclaim pool.  Reused pages are re-zeroed so
   a pool-served block is indistinguishable from fresh growth. *)
let take_pages t pages =
  let best = ref None in
  List.iter
    (fun (s, p) ->
      if p >= pages then
        match !best with
        | Some (_, bp) when bp <= p -> ()
        | _ -> best := Some (s, p))
    t.free_pages;
  match !best with
  | None -> None
  | Some (s, p) ->
      t.free_pages <- List.filter (fun (s', _) -> s' <> s) t.free_pages;
      if p > pages then
        t.free_pages <-
          (s + (pages * Mem.page_size), p - pages) :: t.free_pages;
      Mem.fill t.mem s (pages * Mem.page_size) '\000';
      (* defense in depth against stale cards: the run was cleaned when
         retired, but a reused page must never be born dirty *)
      clear_cards_in_run t s pages;
      Some s

(** The collect-expand policy's emergency collection: a full,
    mode-independent cycle.  Runs through the embedder's hook when one
    is installed (the VM supplies its register file and live stack
    prefix as roots there); standalone heaps collect with only their
    root-scanned (uncollectable) blocks as roots.  Afterwards,
    fully-empty blocks are retired to the reclaim pool. *)
let emergency_collect t =
  t.stats.emergency_collections <- t.stats.emergency_collections + 1;
  (match t.on_oom with
  | Some f -> f ()
  | None -> ignore (collect ~generation:Major t));
  reclaim_empty_blocks t

(* Pages for a new block: the reclaim pool first (those pages are
   already inside the footprint, so the ceiling is irrelevant), then
   fresh growth under the ceiling. *)
let claim_pages t pages =
  match take_pages t pages with
  | Some start -> Some start
  | None ->
      if growth_exceeds_limit t pages then None
      else Some (Mem.grow_pages t.mem pages)

let exhausted t ~req ~pages =
  raise
    (Heap_exhausted
       (Printf.sprintf
          "heap exhausted: %d-byte allocation needs %d fresh page(s), \
           footprint %d of limit %d bytes (%d words, policy %s)"
          req pages (Mem.limit t.mem) (heap_limit_bytes t)
          t.config.heap_limit_words
          (oom_policy_name t.config.oom_policy)))

(* The one collect-expand retry path of every allocator.  [reuse ()]
   serves the request from storage already inside the footprint (a free
   slot or a freed large block), [fresh start] from [pages] pages claimed
   from the reclaim pool or grown under the ceiling.  When neither can,
   [Trap] stops at once; [Collect_expand] runs one emergency collection,
   which may refill a free list or the reclaim pool, and retries both
   once before the [req]-byte allocation surfaces as a structured
   exhaustion. *)
let reuse_or_claim t ~req ~pages ~reuse ~fresh =
  let attempt () =
    match reuse () with
    | Some _ as v -> v
    | None -> Option.map fresh (claim_pages t pages)
  in
  match attempt () with
  | Some v -> v
  | None -> (
      match t.config.oom_policy with
      | Trap -> exhausted t ~req ~pages
      | Collect_expand -> (
          emergency_collect t;
          match attempt () with
          | Some v -> v
          | None -> exhausted t ~req ~pages))

(* Slot [i] of [blk] was just handed out, and holds a young object.  On
   a generational heap a young slot of a collectable block joins the
   block's young-slot map, which the minor sweep visits, and an old
   block holding one joins the aging set.  Blocks that are never
   collected never age. *)
let note_young t (blk : Block.t) i =
  if generational t && collectable blk then begin
    if 0 < t.config.promote_after then
      Bytes.set blk.Block.blk_young_slots i '\001';
    if not (blk.Block.blk_young || blk.Block.blk_aging) then begin
      blk.Block.blk_aging <- true;
      t.aging_blocks <- blk :: t.aging_blocks
    end
  end

let alloc_large t ~req bytes kind =
  let pages = (bytes + Mem.page_size - 1) / Mem.page_size in
  (* reuse a freed large block of the right size if available *)
  let find_reusable () =
    List.find_opt
      (fun b ->
        b.Block.blk_pages = pages
        && b.Block.blk_kind = kind
        && not (Block.is_allocated b 0))
      t.large_blocks
  in
  let fresh start =
    let b =
      Block.make ~start ~pages ~obj_size:(pages * Mem.page_size) ~count:1
        ~kind
    in
    Page_map.set_block t.map b;
    t.large_blocks <- b :: t.large_blocks;
    t.all_blocks <- b :: t.all_blocks;
    b
  in
  (* claimed pages arrive zeroed (growth is zero, the reclaim pool
     re-zeroes); only a recycled block holds its last object's bytes *)
  let reused b =
    Mem.fill t.mem b.Block.blk_start (pages * Mem.page_size) '\000';
    b
  in
  let blk =
    reuse_or_claim t ~req ~pages
      ~reuse:(fun () -> Option.map reused (find_reusable ()))
      ~fresh
  in
  Bytes.set blk.Block.blk_alloc 0 '\001';
  Bytes.set blk.Block.blk_age 0 '\000';
  (* allocate-black: objects born during an incremental cycle survive it
     unconditionally (they cannot hold the only path to snapshot-live
     data, and the sliced sweeper must not free them) *)
  if t.phase <> Idle then Block.set_marked blk 0 true;
  (* large objects live outside the nursery but are born young *)
  note_young t blk 0;
  blk.Block.blk_req.(0) <- req;
  blk.Block.blk_start

(* Open a fresh single-page block for (cls, kind) and make it the bump
   cursor of its class.  The page arrived zeroed (fresh growth is
   zeroed; pool reuse re-zeroes), which is what lets {!bump_slot} skip
   the per-object fill.  A [young] block also joins the nursery. *)
let open_block t cls kind ~young start =
  let count = Mem.page_size / cls in
  let blk = Block.make ~start ~pages:1 ~obj_size:cls ~count ~kind in
  Page_map.set_block t.map blk;
  t.all_blocks <- blk :: t.all_blocks;
  t.cursors.(class_slot cls kind) <- Some blk;
  if young then begin
    blk.Block.blk_young <- true;
    t.young_blocks <- blk :: t.young_blocks;
    t.nursery_opened <- t.nursery_opened + 1
  end

(* Hand the next never-used slot of the cursor block of class slot [k]
   to a [req]-byte object, or return -1 when there is no cursor block or
   it is full: a slot index increment and a limit check, with no
   page-map lookup, no slot division and no fill.  A never-used slot's
   age is still 0, so none is reset; the slot is young
   ({!note_young}). *)
let bump_slot t k ~req =
  match t.cursors.(k) with
  | Some blk when blk.Block.blk_bump < blk.Block.blk_count ->
      let i = blk.Block.blk_bump in
      blk.Block.blk_bump <- i + 1;
      Bytes.set blk.Block.blk_alloc i '\001';
      (* allocate-black during an in-flight incremental cycle *)
      if t.phase <> Idle then Bytes.set blk.Block.blk_mark i '\001';
      blk.Block.blk_req.(i) <- req;
      note_young t blk i;
      blk.Block.blk_start + (i * blk.Block.blk_obj_size)
  | Some _ | None -> -1

(* Pop the head of the free list of class slot [k] and hand its slot to
   a [req]-byte object: allocated, born young again ({!note_young}),
   black during an incremental cycle, and zeroed.  Returns -1 when the
   list is empty. *)
let take_listed t k ~req =
  let fl = t.free_lists.(k) in
  match !fl with
  | [] -> -1
  | addr :: rest -> (
      fl := rest;
      match block_at t addr with
      | None -> assert false
      | Some blk ->
          let i = (addr - blk.Block.blk_start) / blk.Block.blk_obj_size in
          Bytes.set blk.Block.blk_alloc i '\001';
          Bytes.set blk.Block.blk_age i '\000';
          if t.phase <> Idle then Bytes.set blk.Block.blk_mark i '\001';
          blk.Block.blk_req.(i) <- req;
          Mem.fill t.mem addr blk.Block.blk_obj_size '\000';
          note_young t blk i;
          addr)

(* A small object of class [cls].  The nursery (small collectable objects
   of a generational heap) bumps first, and drains freed old-generation
   slots off the free list only when its page is full: reuse keeps
   segregation from costing footprint.  Every other small object, and
   every object of a stop-the-world or incremental heap, takes the free
   list first.  A block is opened only when its list is empty and the
   sweep pushes freed slots onto the front, so freed slots go before the
   never-used ones, as when a fresh block listed all its slots.  Only
   when both are empty is a fresh page claimed, with the collect-expand
   fallback; an emergency collection seals the nursery cursors, so its
   retry starts from the free list. *)
let alloc_small t ~req cls kind =
  let k = class_slot cls kind in
  let young =
    generational t
    &&
    match kind with
    | Block.Normal | Block.Atomic -> true
    | Block.Uncollectable | Block.Stack -> false
  in
  let addr =
    if young then
      let a = bump_slot t k ~req in
      if a >= 0 then a else take_listed t k ~req
    else
      let a = take_listed t k ~req in
      if a >= 0 then a else bump_slot t k ~req
  in
  if addr >= 0 then addr
  else
    reuse_or_claim t ~req ~pages:1
      ~reuse:(fun () ->
        let a = take_listed t k ~req in
        if a >= 0 then Some a else None)
      ~fresh:(fun start ->
        open_block t cls kind ~young start;
        bump_slot t k ~req)

(** Allocate [bytes] (plus the mandatory slack byte) of zeroed storage.

    @raise Heap_exhausted when the heap limit blocks a needed growth
    (immediately under [Trap]; only after an emergency collection and
    retry under [Collect_expand]), or when an injected failure plan
    fires under [Trap]. *)
let alloc ?(kind = Block.Normal) t bytes =
  let bytes = Int.max bytes 1 in
  t.stats.bytes_allocated <- t.stats.bytes_allocated + bytes;
  t.stats.objects_allocated <- t.stats.objects_allocated + 1;
  t.since_gc <- t.since_gc + bytes;
  t.since_minor <- t.since_minor + bytes;
  (* deterministic failure injection, keyed on the allocation ordinal:
     a fired point behaves exactly like a growth the ceiling blocked *)
  if Failpoint.fires t.config.failpoints t.stats.objects_allocated then begin
    t.stats.injected_failures <- t.stats.injected_failures + 1;
    match t.config.oom_policy with
    | Trap ->
        raise
          (Heap_exhausted
             (Printf.sprintf
                "heap exhausted: injected failure at allocation #%d (%d \
                 bytes, policy trap)"
                t.stats.objects_allocated bytes))
    | Collect_expand -> emergency_collect t
  end;
  let with_slack = bytes + 1 in
  if with_slack > max_small then alloc_large t ~req:bytes with_slack kind
  else alloc_small t ~req:bytes (class_size with_slack) kind

(* ------------------------------------------------------------------ *)
(* Checking primitives (debugging mode runtime)                        *)
(* ------------------------------------------------------------------ *)

let fail t fmt =
  Format.kasprintf
    (fun s ->
      t.stats.check_failures <- t.stats.check_failures + 1;
      raise (Check_failure s))
    fmt

(** [GC_same_obj p q]: checks that [p] and [q] point into the same heap
    object (up to the collector's size rounding) and returns [p].  Non-heap
    pointers are ignored, matching the paper: only heap pointers are
    checked. *)
let same_obj t p q =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  let bq = base_of t q in
  (match bq with
  | None -> () (* q is not a heap pointer: nothing to check *)
  | Some base -> (
      match extent_of t q with
      | None -> assert false
      | Some (_, size) ->
          (* p may legally point one past the end; the slack byte puts that
             address inside the rounded object, but be explicit anyway. *)
          if p < base || p > base + size then
            fail t
              "GC_same_obj: %#x escapes object [%#x,+%d) (derived from %#x)"
              p base size q));
  p

(** [GC_pre_incr pp delta]: *pp += delta with a same-object check; returns
    the new value (the checked expansion of [++p] and [p += delta]). *)
let pre_incr t mem_addr delta =
  let old = Mem.load_word t.mem mem_addr in
  let fresh = old + delta in
  ignore (same_obj t fresh old);
  Mem.store_word t.mem mem_addr fresh;
  fresh

(** [GC_post_incr pp delta]: *pp += delta with a check; returns the old
    value (the checked expansion of [p++]). *)
let post_incr t mem_addr delta =
  let old = Mem.load_word t.mem mem_addr in
  let fresh = old + delta in
  ignore (same_obj t fresh old);
  Mem.store_word t.mem mem_addr fresh;
  old

(** [GC_check_base v]: the Extensions-mode store discipline — a heap
    pointer stored into the heap or statics must address the base of its
    object.  Non-heap values pass unchecked; returns [v]. *)
let check_base t v =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  (match block_at t v with
  | Some blk when collectable blk -> (
      match Block.slot_of_addr blk v with
      | Some i when Block.is_allocated blk i ->
          let b = Block.slot_addr blk i in
          if b <> v then
            fail t
              "GC_check_base: interior pointer %#x (base %#x) stored to \
               memory in base-only mode"
              v b
      | Some _ | None -> ())
  | Some _ | None -> () (* statics/stack and non-heap values are exempt *));
  v

(** [GC_check_range p n]: the "additional check" of the paper's Debugging
    Applications section — a whole-structure access of [n] bytes at [p]
    must lie entirely within [p]'s heap object.  Non-heap addresses pass
    (stack and statics are not checked, as in the paper).  Returns [p]. *)
let check_range t p n =
  t.stats.same_obj_checks <- t.stats.same_obj_checks + 1;
  (match extent_of t p with
  | Some (base, size) ->
      if p + n > base + size then
        fail t
          "GC_check_range: %d-byte structure access at %#x overruns object \
           [%#x,+%d)"
          n p base size
  | None -> ());
  p

(** Is [addr, addr+len) fully inside some allocated heap object?  The
    rule of the checked accesses below, which is how the VM detects
    access to swept (prematurely collected) objects. *)
let valid_access t addr len =
  match block_at t addr with
  | None -> false
  | Some blk -> slot_holding blk addr len >= 0

(* ------------------------------------------------------------------ *)
(* Checked access                                                      *)
(* ------------------------------------------------------------------ *)

exception Invalid_access of { store : bool; addr : int; len : int }

(** [load t ~width addr]: the [width]-byte value at [addr], sign-extended,
    when {!valid_access} holds for it; one page-map lookup, the slot rule
    and the arena read, all in this module.
    @raise Invalid_access otherwise, with [store = false]. *)
let load t ~width addr =
  match block_at t addr with
  | Some blk when slot_holding blk addr width >= 0 -> (
      let data = t.mem.Mem.data in
      match width with
      | 8 -> Int64.to_int (Bytes.get_int64_le data addr)
      | 1 -> Bytes.get_int8 data addr
      | 4 -> Int32.to_int (Bytes.get_int32_le data addr)
      | 2 -> Bytes.get_int16_le data addr
      | w -> invalid_arg (Printf.sprintf "Heap.load: width %d" w))
  | Some _ | None -> raise (Invalid_access { store = false; addr; len = width })

(** [store t ~width addr v]: write the low [width] bytes of [v] at [addr]
    when {!valid_access} holds for it, after the store barrier
    ({!note_store}: the SATB read of the overwritten words first, then
    the cards).
    @raise Invalid_access otherwise, with [store = true], before the
    barrier runs. *)
let store t ~width addr v =
  (match block_at t addr with
  | Some blk when slot_holding blk addr width >= 0 -> ()
  | Some _ | None -> raise (Invalid_access { store = true; addr; len = width }));
  if t.phase = Marking || generational t then note_store t addr width;
  let data = t.mem.Mem.data in
  match width with
  | 8 -> Bytes.set_int64_le data addr (Int64.of_int v)
  | 1 -> Bytes.set_int8 data addr v
  | 4 -> Bytes.set_int32_le data addr (Int32.of_int v)
  | 2 -> Bytes.set_int16_le data addr v
  | w -> invalid_arg (Printf.sprintf "Heap.store: width %d" w)

(* ------------------------------------------------------------------ *)
(* Heap-integrity sanitizer                                            *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_rule : string;  (** which invariant family failed *)
  v_detail : string;
}

exception Heap_corruption of violation list

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.v_rule v.v_detail

(** Validate every structural invariant the allocator and collector rely
    on.  Returns the violations found (empty on a healthy heap); collection
    correctness experiments run this after every collection.

    Invariant families:
    - [block-header]: descriptor fields are internally consistent;
    - [page-map]: every page of every block maps back to that block, the
      map holds no stray blocks, and no block is listed twice;
    - [mark-bits]: a mark bit is only ever set on an allocated slot;
    - [free-list]: free lists hold exactly the free slots below the bump
      cursor of old small blocks, once each, at slot-base addresses of the
      right class and kind;
    - [cursor]: every small block's bump cursor lies in [[0, count]], and
      the slots at or past it are unallocated, unmarked and on no free
      list;
    - [slack-byte]: every allocated object keeps the paper's one extra
      byte ([req] strictly below the rounded slot size);
    - [nursery]: young blocks are collectable single pages, and the young
      set is exactly the young blocks;
    - [young-slots]: the young-slot map of a nursery page or an aging
      block holds exactly its allocated slots younger than
      [promote_after], the slots a minor sweep of it visits; every other
      block's map is clear, and a block that is never collected never
      ages;
    - [remembered-set] (generational mode only): every old→young
      reference lies on a dirty card, so a minor collection cannot miss
      it. *)
(* Every check gets a fresh number, so free-list flags a block kept from
   an earlier check (of this heap or another) never count in this one. *)
let integrity_checks = Atomic.make 0

let check_integrity t : violation list =
  let out = ref [] in
  let report rule fmt =
    Format.kasprintf
      (fun s -> out := { v_rule = rule; v_detail = s } :: !out)
      fmt
  in
  let check = Atomic.fetch_and_add integrity_checks 1 + 1 in
  (* [listed blk] is [blk]'s per-slot free-list flags for this check,
     cleared on first use; a block it has served is numbered [check] *)
  let listed blk =
    if blk.Block.blk_listed_pass <> check then begin
      if Bytes.length blk.Block.blk_listed = blk.Block.blk_count then
        Bytes.fill blk.Block.blk_listed 0 blk.Block.blk_count '\000'
      else blk.Block.blk_listed <- Bytes.make blk.Block.blk_count '\000';
      blk.Block.blk_listed_pass <- check
    end;
    blk.Block.blk_listed
  in
  (* block headers and page-map agreement.  A listed block already
     numbered [check] is listed twice.  [mapped_back] counts the pages
     that map to the (distinct) listed block they belong to, each page
     once, so every other mapped page is a stray. *)
  let mapped_back = ref 0 and misrouted = ref [] in
  List.iter
    (fun blk ->
      if blk.Block.blk_listed_pass = check then
        report "page-map" "block %#x is listed twice" blk.Block.blk_start
      else begin
        ignore (listed blk);
        if blk.Block.blk_obj_size <= 0 || blk.Block.blk_count <= 0 then
          report "block-header" "block %#x: degenerate geometry (%d x %d)"
            blk.Block.blk_start blk.Block.blk_count blk.Block.blk_obj_size;
        if blk.Block.blk_start land (Mem.page_size - 1) <> 0 then
          report "block-header" "block %#x is not page-aligned"
            blk.Block.blk_start;
        if
          blk.Block.blk_count * blk.Block.blk_obj_size
          > blk.Block.blk_pages * Mem.page_size
        then
          report "block-header"
            "block %#x: %d objects of %d bytes overflow %d page(s)"
            blk.Block.blk_start blk.Block.blk_count blk.Block.blk_obj_size
            blk.Block.blk_pages;
        for pg = 0 to blk.Block.blk_pages - 1 do
          let addr = blk.Block.blk_start + (pg * Mem.page_size) in
          match block_at t addr with
          | Some b when b == blk -> incr mapped_back
          | Some b ->
              misrouted := blk :: !misrouted;
              report "page-map" "page %#x of block %#x maps to block %#x"
                addr blk.Block.blk_start b.Block.blk_start
          | None ->
              misrouted := blk :: !misrouted;
              report "page-map" "page %#x of block %#x is unmapped" addr
                blk.Block.blk_start
        done
      end)
    t.all_blocks;
  let stray = Page_map.mapped_pages t.map - !mapped_back in
  if stray > 0 then
    report "page-map" "%d stray page(s) registered in the page map" stray;
  (* [f j] for each slot [j] of [lo, hi), except that eight slots are
     stepped over at once where [skip8 j] holds: the loops below test
     eight slots' bytes with one [Bytes.get_int64_le] read. *)
  let visit_runs lo hi skip8 f =
    let i = ref lo in
    while !i < hi do
      let j = !i in
      if j + 8 <= hi && skip8 j then i := j + 8
      else begin
        f j;
        i := j + 1
      end
    done
  in
  (* per-slot invariants: mark bits and the one-extra-byte rule.  Eight
     free, unmarked slots are stepped over at once. *)
  List.iter
    (fun blk ->
      let alloc = blk.Block.blk_alloc and mark = blk.Block.blk_mark in
      visit_runs 0 blk.Block.blk_count
        (fun j ->
          Int64.logor (Bytes.get_int64_le alloc j) (Bytes.get_int64_le mark j)
          = 0L)
        (fun j ->
          if Bytes.get alloc j <> '\000' then begin
            let req = blk.Block.blk_req.(j) in
            if req < 0 || req >= blk.Block.blk_obj_size then
              report "slack-byte"
                "object %#x: %d requested byte(s) leave no slack in a \
                 %d-byte slot"
                (Block.slot_addr blk j) req blk.Block.blk_obj_size
          end
          else if Bytes.get mark j <> '\000' then
            report "mark-bits" "free slot %#x carries a mark bit"
              (Block.slot_addr blk j)))
    t.all_blocks;
  (* free-list soundness.  Each entry sets the flag of the slot the page
     map resolves it to; an entry that resolves to no slot base is
     already a violation, and is remembered by address instead. *)
  let odd = Hashtbl.create 1 in
  let odd_twice addr =
    let seen = Hashtbl.mem odd addr in
    Hashtbl.replace odd addr ();
    seen
  in
  (* Free lists are filled block by block, by a sweep or a promotion,
     so consecutive entries mostly share a page: its block [home] and
     that block's [flags] are looked up once per page ([find] of a
     negative address is [None], like the initial [home]).  Most lists
     of a small heap are empty, and are skipped. *)
  let page = ref (-1) and home = ref None and flags = ref Bytes.empty in
  for k = 0 to class_slots - 1 do
    match !(t.free_lists.(k)) with
    | [] -> ()
    | entries ->
        let cls, kind = slot_class k in
        let rec walk = function
          | [] -> ()
          | addr :: rest ->
              if addr asr Mem.page_bits <> !page then begin
                page := addr asr Mem.page_bits;
                home := block_at t addr;
                flags :=
                  match !home with Some b -> listed b | None -> Bytes.empty
              end;
              (match !home with
              | None ->
                  if odd_twice addr then
                    report "free-list" "slot %#x appears on a free list twice"
                      addr;
                  report "free-list" "entry %#x is not on a heap page" addr
              | Some blk ->
                  let i = Block.slot_base blk addr in
                  let twice =
                    if i >= 0 then begin
                      let seen = Bytes.get !flags i <> '\000' in
                      Bytes.set !flags i '\001';
                      seen
                    end
                    else odd_twice addr
                  in
                  if twice then
                    report "free-list" "slot %#x appears on a free list twice"
                      addr;
                  if blk.Block.blk_obj_size <> cls then
                    report "free-list"
                      "entry %#x on the %d-byte list, but its block holds \
                       %d-byte objects"
                      addr cls blk.Block.blk_obj_size;
                  if blk.Block.blk_kind <> kind then
                    report "free-list" "entry %#x has the wrong block kind"
                      addr;
                  if blk.Block.blk_young then
                    report "free-list" "entry %#x lies on a nursery page" addr;
                  if i < 0 then
                    report "free-list" "entry %#x is not a slot base" addr
                  else if Bytes.get blk.Block.blk_alloc i <> '\000' then
                    report "free-list" "allocated slot %#x is on a free list"
                      addr);
              walk rest
        in
        walk entries
  done;
  (* Per small block, the cursor rule and free-list completeness.  Slots
     at or past [blk_bump] were never handed out: unallocated, unmarked
     and unlisted.  Every free slot below it is findable, except on
     nursery pages, whose freed slots join the free lists only when the
     page is promoted.  A block whose pages all map back to it resolves
     each of its slots to itself, and eight of its slots are stepped
     over at once: below the cursor when each is allocated or listed,
     past it when none is allocated, marked or listed. *)
  let on_free_list addr =
    match block_at t addr with
    | Some b when Block.slot_base b addr >= 0 ->
        Bytes.get (listed b) (Block.slot_base b addr) <> '\000'
    | Some _ | None -> Hashtbl.mem odd addr
  in
  let all_set = 0x0101010101010101L in
  List.iter
    (fun blk ->
      if blk.Block.blk_obj_size <= max_small then begin
        let alloc = blk.Block.blk_alloc and mark = blk.Block.blk_mark in
        let flags = listed blk and exact = not (List.memq blk !misrouted) in
        let is_listed j =
          if exact then Bytes.get flags j <> '\000'
          else on_free_list (Block.slot_addr blk j)
        in
        let count = blk.Block.blk_count and bump = blk.Block.blk_bump in
        if bump < 0 || bump > count then
          report "cursor" "block %#x: bump %d outside [0,%d]"
            blk.Block.blk_start bump count;
        let bump = Int.max 0 (Int.min bump count) in
        if not blk.Block.blk_young then
          visit_runs 0 bump
            (fun j ->
              exact
              && Int64.logor (Bytes.get_int64_le alloc j)
                   (Bytes.get_int64_le flags j)
                 = all_set)
            (fun j ->
              if Bytes.get alloc j = '\000' && not (is_listed j) then
                report "free-list" "free slot %#x is on no free list"
                  (Block.slot_addr blk j));
        let in_use j what =
          report "cursor"
            "block %#x: slot %d at or past the bump cursor (%d) is %s"
            blk.Block.blk_start j bump what
        in
        visit_runs bump count
          (fun j ->
            exact
            && Int64.logor
                 (Int64.logor (Bytes.get_int64_le alloc j)
                    (Bytes.get_int64_le mark j))
                 (Bytes.get_int64_le flags j)
               = 0L)
          (fun j ->
            if Bytes.get alloc j <> '\000' then in_use j "allocated";
            if Bytes.get mark j <> '\000' then in_use j "marked";
            if is_listed j then in_use j "on a free list")
      end)
    t.all_blocks;
  (* nursery invariants: young blocks are collectable single-page bump
     regions, and the young set is exactly the young blocks *)
  List.iter
    (fun blk ->
      if blk.Block.blk_young then begin
        if not (collectable blk) then
          report "nursery" "young block %#x is not collectable"
            blk.Block.blk_start;
        if blk.Block.blk_pages <> 1 then
          report "nursery" "young block %#x spans %d pages"
            blk.Block.blk_start blk.Block.blk_pages;
        if not (List.memq blk t.young_blocks) then
          report "nursery" "young block %#x is missing from the young set"
            blk.Block.blk_start
      end)
    t.all_blocks;
  List.iter
    (fun blk ->
      if not blk.Block.blk_young then
        report "nursery" "old block %#x lingers in the young set"
          blk.Block.blk_start)
    t.young_blocks;
  (* young-slot maps.  A block whose map should be clear has eight clear
     map bytes stepped over at once. *)
  let promote_after = t.config.promote_after in
  List.iter
    (fun blk ->
      let young = blk.Block.blk_young_slots in
      if blk.Block.blk_aging && not (collectable blk) then
        report "young-slots" "block %#x is never collected, but aging"
          blk.Block.blk_start;
      let swept =
        collectable blk && (blk.Block.blk_young || blk.Block.blk_aging)
      in
      visit_runs 0 blk.Block.blk_count
        (fun j -> (not swept) && Bytes.get_int64_le young j = 0L)
        (fun j ->
          let want =
            swept
            && Bytes.get blk.Block.blk_alloc j <> '\000'
            && Char.code (Bytes.get blk.Block.blk_age j) < promote_after
          in
          if want <> (Bytes.get young j <> '\000') then
            report "young-slots" "block %#x: slot %d is %s the young-slot map"
              blk.Block.blk_start j
              (if want then "missing from" else "wrongly in")))
    t.all_blocks;
  (* remembered-set completeness: minor collections scan only dirty
     cards of the old generation, so an old→young reference on a clean
     card would let a minor cycle reclaim a live object *)
  if generational t then
    List.iter
      (fun blk ->
        if collectable blk && scanned blk then
          for i = 0 to blk.Block.blk_count - 1 do
            if Block.is_allocated blk i && is_old t blk i then begin
              let s = Block.slot_addr blk i in
              iter_range_words t s (s + blk.Block.blk_obj_size) (fun a v ->
                  if points_young t v && not (page_is_dirty t a) then
                    report "remembered-set"
                      "old object %#x holds young pointer %#x at %#x on a \
                       clean card"
                      s v a)
            end
          done)
      t.all_blocks;
  List.rev !out

(** Run {!check_integrity} and raise {!Heap_corruption} on any finding. *)
let assert_integrity t =
  match check_integrity t with [] -> () | vs -> raise (Heap_corruption vs)

(** Live collectable objects: [(count, requested_bytes)].  Deterministic
    across build configurations for the same program semantics, so the
    differential harness can diff final heaps. *)
let live_summary t =
  let objs = ref 0 and bytes = ref 0 in
  List.iter
    (fun blk ->
      if collectable blk then
        for i = 0 to blk.Block.blk_count - 1 do
          if Block.is_allocated blk i then begin
            incr objs;
            bytes := !bytes + blk.Block.blk_req.(i)
          end
        done)
    t.all_blocks;
  (!objs, !bytes)

(** Total arena footprint in bytes (the VM's heap resource ceiling is
    checked against this). *)
let footprint t = Mem.limit t.mem

let pp_stats fmt s =
  Format.fprintf fmt
    "collections=%d (minor=%d) allocated=%d objs (%d bytes) freed=%d objs \
     (%d bytes) words_scanned=%d base_lookups=%d same_obj=%d failures=%d \
     promoted=%d cards_scanned=%d emergency=%d injected_failures=%d \
     increments=%d final_marks=%d barrier_grays=%d budget_overruns=%d \
     max_pause_words=%d abandoned=%d"
    s.collections s.minor_collections s.objects_allocated s.bytes_allocated
    s.objects_freed s.bytes_freed s.words_scanned s.base_lookups
    s.same_obj_checks s.check_failures s.promoted s.cards_scanned
    s.emergency_collections s.injected_failures s.increments s.final_marks
    s.barrier_grays s.budget_overruns s.inc_max_pause_words s.abandoned_cycles
