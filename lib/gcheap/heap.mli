(** Conservative mark-sweep collector in the style of [Boehm95].

    The public surface covers exactly what the paper relies on: allocation
    with one extra byte of slack (so legal one-past-the-end pointers map
    back to their object), [GC_base]-style interior-pointer resolution via
    the height-2 page map, root scanning over caller-supplied word values
    and ranges, and the checking primitives of the debugging
    mode ([GC_same_obj], [GC_pre_incr], [GC_post_incr], [GC_check_base]).

    A generational mode layers minor collections on top: objects carry a
    per-slot age, a minor cycle scans roots, young objects and the dirty
    cards of a page-granularity remembered set (fed by {!note_store}),
    and survivors promote to the old generation after
    [config.promote_after] minor cycles.

    A generational heap also segregates the generations by page: new
    small collectable objects are bump-allocated off young single-page
    blocks ([config.nursery_pages] of them per allocation window).  Each
    block's young-slot map holds its young slots, on nursery pages and
    reused in old blocks alike, and one minor sweep visits exactly
    those: wholly dead nursery pages return to the reclaim pool, and a
    page whose objects all survive [config.promote_after] minors is
    promoted in place — the collector is conservative, so objects never
    move.  The remembered set then tracks only old-generation pages.

    An incremental mode slices a snapshot-at-the-beginning cycle into
    budget-bounded {!step}s; it has no generations, and allocates like
    a stop-the-world heap.  Stop-the-world, minor and incremental
    collection run on one engine: one gray stack, one shading rule
    (shared with the store barrier's SATB half), one root scan, one
    budgeted drain and one slot sweeper. *)

type gc_mode = Stw | Gen | Inc
(** Collector operating mode: stop-the-world full collections only (the
    paper's collector, the default), generational minor + major cycles,
    or incremental snapshot-at-the-beginning marking time-sliced across
    GC points (see {!step}). *)

val gc_mode_name : gc_mode -> string
(** ["stw"] / ["gen"] / ["inc"]. *)

val gc_mode_of_string : string -> gc_mode option

type generation = Minor | Major
(** Which cycle {!collect} runs; [Minor] degrades to [Major] on a
    non-generational heap. *)

type oom_policy = Trap | Collect_expand
(** What an allocation failure (heap-limit overrun or injected
    failpoint) does: raise {!Heap_exhausted} immediately ([Trap]), or
    run an emergency full collection, retry, grow within the limit, and
    raise only when all of that fails ([Collect_expand], Boehm's
    collect-then-expand). *)

val oom_policy_name : oom_policy -> string
(** ["trap"] / ["collect-expand"]. *)

val oom_policy_of_string : string -> oom_policy option

type config = {
  all_interior : bool;
      (** recognize interior pointers everywhere (the paper's default
          collector configuration); when [false], interior pointers are
          honoured from the roots only — the "Extensions" section mode *)
  gc_threshold : int;  (** allocation volume (bytes) between collections *)
  mode : gc_mode;
      (** [Gen] enables minor collections, the store barrier's dirty
          cards and the bump-pointer nursery; default [Stw] *)
  minor_threshold : int;
      (** allocation volume (bytes) between minor collections *)
  promote_after : int;
      (** minor collections an object must survive to become old *)
  heap_limit_words : int;
      (** hard arena ceiling in words; [0] (the default) is unlimited *)
  oom_policy : oom_policy;
      (** allocation-failure response; see {!oom_policy} *)
  pause_budget_words : int;
      (** words of collector work one incremental step may perform
          before yielding back to the mutator; {!step} treats anything
          below 1 as 1 *)
  nursery_pages : int;
      (** pages of bump-allocated nursery a generational heap may open
          between collections before a minor cycle is due (positive;
          default 8) *)
  failpoints : Failpoint.t;
      (** injected allocation failures (the chaos harness sets this);
          [Never] (the default) costs one branch per allocation *)
}
(** The collector's knobs.  Immutable, so an embedder's copy (the VM's
    [vm_heap]) is a plain value: updating it never reaches a heap
    already created from it. *)

type stats = {
  mutable collections : int;  (** all collections, minor included *)
  mutable minor_collections : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable objects_freed : int;
  mutable bytes_freed : int;
  mutable words_scanned : int;
  mutable base_lookups : int;
  mutable same_obj_checks : int;
  mutable check_failures : int;
  mutable promoted : int;  (** objects promoted to the old generation *)
  mutable cards_scanned : int;  (** dirty cards visited by minor cycles *)
  mutable emergency_collections : int;
      (** collect-expand cycles run on allocation failure *)
  mutable injected_failures : int;  (** failpoints that fired *)
  mutable increments : int;  (** incremental steps run *)
  mutable final_marks : int;
      (** incremental steps that performed the atomic finalization *)
  mutable barrier_grays : int;
      (** overwritten old values the SATB barrier grayed *)
  mutable budget_overruns : int;
      (** incremental steps whose work exceeded the pause budget *)
  mutable inc_max_pause_words : int;
      (** largest single incremental step, in words of collector work *)
  mutable abandoned_cycles : int;
      (** in-flight incremental cycles abandoned by a full collection *)
}

type phase = Idle | Marking | Sweeping
(** Where an incremental marking cycle stands; [Idle] outside a cycle. *)

type t = {
  mem : Mem.t;
  map : Page_map.t;
  free_lists : int list ref array;
      (** free slot addresses of each (class size, kind), indexed densely
          so that the allocator and the sweepers hash nothing; see
          {!free_list} *)
  mutable large_blocks : Block.t list;
  mutable all_blocks : Block.t list;
  mutable config : config;
      (** replaced whole, never edited in place (tests vary the pause
          budget between steps) *)
  stats : stats;
  mutable since_gc : int;
      (** live-growth estimate driving major collections: allocation
          minus what minor cycles reclaimed, reset by a full collection *)
  mutable since_minor : int;  (** bytes allocated since any collection *)
  mutable dirty : Bytes.t;
      (** remembered set: one byte per arena page, set by {!note_store} *)
  mutable on_free : (addr:int -> bytes:int -> unit) option;
      (** observer called with the base address and requested size of
          every object the sweeper reclaims — the heap profiler hangs
          off this; [None] (the default) costs one test per free *)
  mutable on_oom : (unit -> unit) option;
      (** emergency-collection hook: the VM installs a closure that
          collects with its full root set (register files plus the live
          stack prefix); [None] collects with the root-scanned
          (uncollectable) blocks as the only roots *)
  mutable free_pages : (int * int) list;
      (** reclaim pool: [(start, pages)] page runs retired from
          fully-empty blocks by emergency collections and from wholly
          dead nursery pages at collection boundaries, available to any
          later block of any size class.  The arena never shrinks, but
          pages inside it can change role — this is what makes
          [Collect_expand] strictly stronger than [Trap] when the
          blocker is a large allocation, and what keeps a churning
          nursery's footprint bounded.  Card bytes are wiped both when
          a run is retired and when it is reused, so no page is ever
          born dirty.  Always empty on limit-free stop-the-world
          executions *)
  mutable phase : phase;
      (** incremental-cycle phase; driven by {!step} *)
  mutable gray : (int * int) list;
      (** the mark stack of every collection: gray ranges [start, stop)]
          still to scan, with partial push-back when a budget expires
          mid-range *)
  mutable sweep_pending : Block.t list;
      (** blocks the sweep has yet to visit *)
  mutable sweep_cursor : int;
      (** next slot to examine in the head of [sweep_pending] — lets a
          sweep slice stop mid-block exactly at the pause budget *)
  mutable young_blocks : Block.t list;
      (** nursery: the young single-page blocks currently in service *)
  mutable aging_blocks : Block.t list;
      (** old-generation collectable blocks that may hold still-young
          (reused or large) slots; the minor sweep visits them and the
          nursery pages through each block's young-slot map *)
  cursors : Block.t option array;
      (** the block being bump-filled, indexed like [free_lists] *)
  mutable nursery_opened : int;
      (** young pages opened since the last collection (the nursery
          occupancy trigger for minor cycles) *)
  mutable dirty_index : int list;
      (** indices of possibly-dirty pages, so card scans walk the dirty
          subset instead of the whole arena; may hold stale entries,
          which readers skip by re-checking the card byte *)
}

exception Check_failure of string
(** Raised by the checking primitives when a pointer escapes its object. *)

exception Heap_exhausted of string
(** The structured out-of-memory outcome: a heap-limit overrun that
    survived the configured recovery, or an injected failpoint under
    the [Trap] policy.  Never raised when [heap_limit_words = 0] and no
    failpoints are set. *)

val default_config : config
(** The paper's collector: stop-the-world, all-interior, no heap limit,
    collect-then-expand, no failpoints.  The one place the collector's
    defaults are written; the VM, the harness's requests and the CLI
    take theirs from here. *)

val create : ?config:config -> unit -> t

val class_size : int -> int
(** The size class an allocation request (slack included) rounds up to. *)

val max_small : int
(** Largest slot size served from the size-class free lists; anything
    bigger is a whole-pages large block. *)

val free_list : t -> int -> Block.kind -> int list ref
(** [free_list t cls kind]: the listed free slot addresses of class size
    [cls] (a {!class_size} up to {!max_small}) and [kind], the next one
    first.  Slots at or past a block's bump cursor are free but not
    listed. *)

val alloc : ?kind:Block.kind -> t -> int -> int
(** [alloc t n] returns the address of [n] bytes of zeroed storage (the
    paper's extra byte is added internally).  [kind] defaults to
    collectable, scanned storage.
    @raise Heap_exhausted when the heap limit blocks a needed growth
    (after emergency collection and retry under [Collect_expand]), or
    when a failpoint fires under [Trap]. *)

val base_of : t -> int -> int option
(** [GC_base]: map any address inside an allocated object to the object's
    base; [None] outside the heap, in free slots, or one before an
    object. *)

val extent_of : t -> int -> (int * int) option
(** Object extent [(base, rounded_size)] for an address inside an
    allocated object. *)

val note_store : t -> int -> int -> unit
(** [note_store t addr len]: the store write-barrier.  Every page of a
    collectable old-generation block that [addr, addr+len) touches joins
    the remembered set, so the next minor cycle rescans it; on an aging
    block (an old block whose freed slots were reused as young objects)
    only a page where the write touches an allocated old slot does.
    Nursery pages, stacks, statics and registers need no card (minors
    scan all of those anyway).  A single branch (and no allocation) when
    the heap is not generational. *)

val page_is_dirty : t -> int -> bool
(** Is the card (page) holding [addr] in the remembered set? *)

val slot_age : t -> int -> int option
(** Minor collections the allocated object at [addr] has survived;
    [None] outside allocated objects.  Ages [>= config.promote_after]
    are the old generation. *)

val should_collect : t -> bool
(** Has the live-growth estimate since the last full collection crossed
    the (major) threshold? *)

val should_collect_minor : t -> bool
(** Has the allocation volume since any collection crossed the minor
    threshold?  Always [false] outside generational mode. *)

val collect :
  ?generation:generation ->
  ?extra_roots:int array list ->
  ?extra_ranges:(int * int) list ->
  t ->
  int
(** Run a collection ([Major], a full stop-the-world cycle, by default;
    [Minor] scans only roots, young objects and dirty cards, and is
    honoured only on a generational heap).  [extra_roots] are arrays of
    word values scanned in addition to the uncollectable objects, read in
    place in order (the VM passes its register files, innermost frame
    first); [extra_ranges] are per-collection root ranges (the
    VM passes the live prefix of its [Stack]-kind block).  Returns the
    number of objects freed.  An in-flight incremental cycle is soundly
    abandoned first (counted in [stats.abandoned_cycles]), so emergency,
    explicit and forced collections behave exactly as on a
    stop-the-world heap. *)

val active : t -> bool
(** Is an incremental cycle in flight ([phase <> Idle])? *)

val step :
  ?extra_roots:int array list ->
  ?extra_ranges:(int * int) list ->
  t ->
  int
(** Run one increment of the incremental snapshot-at-the-beginning
    cycle and return the words of collector work it performed.  On an
    idle heap this starts a cycle with the same atomic root scan as
    {!collect} (over [extra_roots], [extra_ranges] and the root-scanned
    uncollectable blocks); on a marking heap
    it drains gray ranges under [config.pause_budget_words] (and, when
    the stack drains within budget, atomically finalizes by re-shading
    [extra_roots] and draining to empty); on a sweeping heap it frees
    unmarked slots under the budget.  A finished cycle is accounted like
    a full collection.  While a
    cycle is in flight the store barrier shades overwritten values and
    allocation is black.  The snapshot and the finalization are atomic,
    so a step can exceed the budget; such steps are counted in
    [stats.budget_overruns].  Updates [stats.increments],
    [stats.final_marks] and [stats.inc_max_pause_words]. *)

val finish :
  ?extra_roots:int array list ->
  ?extra_ranges:(int * int) list ->
  t ->
  unit
(** Drive {!step} until the in-flight cycle (if any) completes.  The
    roots must be the same the embedder would pass to {!step}. *)

val same_obj : t -> int -> int -> int
(** [GC_same_obj p q]: check that [p] points into (or one past) the object
    [q] points into, and return [p].  Non-heap [q] passes unchecked.
    @raise Check_failure when [p] escapes. *)

val pre_incr : t -> int -> int -> int
(** [GC_pre_incr slot delta]: [*slot += delta] with a {!same_obj} check;
    returns the new value. *)

val post_incr : t -> int -> int -> int
(** [GC_post_incr slot delta]: [*slot += delta] with a check; returns the
    old value. *)

val check_base : t -> int -> int
(** [GC_check_base v]: the Extensions-mode store discipline — a pointer
    into a collectable heap object must be its base.  Statics, stack and
    non-heap values pass.  Returns [v].
    @raise Check_failure on an interior heap pointer. *)

val check_range : t -> int -> int -> int
(** [GC_check_range p n]: a whole-structure access of [n] bytes at [p]
    must lie inside [p]'s heap object (the Debugging Applications
    section's "additional check").  Non-heap addresses pass.  Returns [p].
    @raise Check_failure on an overrun. *)

val block_at : t -> int -> Block.t option
(** The block whose pages hold an address, if any: two array reads of the
    height-2 page map.  The one lookup behind every query here, the
    collector's per-word shading and the checked accesses. *)

val valid_access : t -> int -> int -> bool
(** Is [addr, addr+len)] fully inside some allocated heap object?  The
    rule {!load} and {!store} apply; the VM's builtins check their
    ranges with it. *)

exception Invalid_access of { store : bool; addr : int; len : int }
(** A {!load} or {!store} of [len] bytes at [addr] that {!valid_access}
    rejects: unallocated, swept or straddling memory. *)

val load : t -> width:int -> int -> int
(** [load t ~width addr]: the checked read of the VM's load
    instructions.  Reads the [width]-byte (1, 2, 4 or 8) little-endian
    value at [addr], sign-extended, when [valid_access t addr width]
    holds: one page-map lookup, one slot test, one arena read.
    @raise Invalid_access otherwise. *)

val store : t -> width:int -> int -> int -> unit
(** [store t ~width addr v]: the checked write of the VM's store
    instructions.  When [valid_access t addr width] holds, runs the store
    barrier ({!note_store}: the SATB read of the overwritten words, then
    the cards) and writes the low [width] bytes of [v].
    @raise Invalid_access otherwise, before the barrier. *)

type violation = {
  v_rule : string;  (** which invariant family failed *)
  v_detail : string;
}
(** One heap-integrity finding, e.g. rule ["free-list"] with the offending
    address in the detail. *)

exception Heap_corruption of violation list
(** Raised by {!assert_integrity} so a corrupted heap surfaces as a
    structured report rather than silently continuing. *)

val pp_violation : Format.formatter -> violation -> unit

val check_integrity : t -> violation list
(** Validate page-map/block-header agreement, mark-bit consistency,
    free-list well-formedness, the bump-cursor rule, the one-extra-byte
    rule, the nursery sets, the young-slot maps of nursery pages and
    aging blocks (no block that is never collected ages) and
    (generational heaps) remembered-set completeness.  Returns the
    violations found (empty on a healthy heap). *)

val integrity_checks : int Atomic.t
(** {!check_integrity} calls made so far in this process, on any heap
    (each check takes the next number). *)

val assert_integrity : t -> unit
(** @raise Heap_corruption if {!check_integrity} finds anything. *)

val live_summary : t -> int * int
(** Live collectable objects as [(count, requested_bytes)] — the final-heap
    fingerprint the differential harness diffs across builds. *)

val footprint : t -> int
(** Total arena footprint in bytes (what the VM's heap ceiling bounds). *)

val pp_stats : Format.formatter -> stats -> unit
