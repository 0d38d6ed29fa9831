(** The virtual machine: executes IR programs against the conservative
    collector, with per-machine cycle accounting.

    GC roots are what a conservative collector sees on a real machine:
    every frame's register file (stale values included), the VM stack and
    the statics region.  Collections trigger on allocation volume and —
    under an injected {!Schedule.t} — at deterministic safepoints: every
    Nth instruction boundary, every allocation, or an explicit bit-set of
    instruction indices.  Every load and store is checked against the heap
    map, so touching a prematurely collected object faults instead of
    silently reading poisoned memory.

    Resource exhaustion (step or heap ceiling) raises [Trap], distinct
    from [Fault]: running out of budget is a structured diagnostic, not a
    program error. *)

exception Fault of string

type trap_kind = Step_limit | Heap_limit

val trap_kind_name : trap_kind -> string

exception Trap of trap_kind * string
(** A resource ceiling was exceeded. *)

type config = {
  vm_machine : Machdesc.t;
  vm_gc_schedule : Schedule.t;  (** injected (forced) collection points *)
  vm_gc_at_calls_only : bool;
      (** restrict forced collections to call instructions — the
          environment assumed by the paper's optimization (4) *)
  vm_all_interior : bool;
      (** collector recognizes interior pointers everywhere (default);
          [false] reproduces the Extensions-section root-only mode *)
  vm_gc_threshold : int;  (** allocation volume between collections *)
  vm_gc_mode : Gcheap.Heap.gc_mode;
      (** [Stw] (default): full collections only, the paper's collector.
          [Gen]: generational — a store write-barrier feeds a
          page-granularity remembered set, minor collections run every
          [vm_gc_threshold / 8] allocated bytes and scan only young
          objects, roots and dirty cards; the major threshold tracks
          live growth.  [Inc]: incremental — marking cycles are
          snapshot-at-the-beginning, sliced into increments of at most
          [vm_gc_pause_budget] words of collector work run at allocation
          GC points; the same store barrier grays overwritten old values
          while a cycle is marking, and allocation during a cycle is
          black.  Cycle counts are identical in all modes (the barrier
          charges nothing), and injected/forced collections are always
          full majors (soundly abandoning any in-flight incremental
          cycle), so unsafe programs fail identically under injected
          schedules. *)
  vm_gc_pause_budget : int;
      (** incremental-mode pause budget: words of collector work per
          increment, on the deterministic VM-tick/words clock.  The
          atomic snapshot root scan and the atomic final mark may
          overrun it; overruns are counted in
          [vm/gc/incremental/budget_overruns]. *)
  vm_max_instrs : int;  (** step ceiling; exceeding it raises [Trap] *)
  vm_max_heap_bytes : int;
      (** arena footprint ceiling; exceeding it raises [Trap] *)
  vm_heap_limit_words : int;
      (** the allocator's hard ceiling in words ([0] = unlimited).
          Unlike [vm_max_heap_bytes] (a supervisory trap checked after
          the fact), this gates growth inside the heap and engages the
          [vm_oom_policy] recovery path; failures surface as
          {!Gcheap.Heap.Heap_exhausted} *)
  vm_oom_policy : Gcheap.Heap.oom_policy;
      (** allocation-failure response: trap immediately, or
          emergency-collect (a full cycle over the VM's real roots),
          retry, and expand within the limit (the default) *)
  vm_alloc_failpoints : Gcheap.Failpoint.t;
      (** injected allocation failures, mirroring [vm_gc_schedule];
          [Never] (the default) injects nothing *)
  vm_check_integrity : bool;
      (** run {!Gcheap.Heap.check_integrity} after every collection and
          raise {!Gcheap.Heap.Heap_corruption} on any violation *)
  vm_final_collect : bool;
      (** collect once after [main] returns so [r_live_objects] /
          [r_live_bytes] are comparable across schedules and builds *)
  vm_gc_point_sink : (int -> string -> unit) option;
      (** called for every fired injected collection with its safepoint
          index and a program-location description, also when the run
          later faults — what the schedule shrinker replays.  The
          description is formatted only when a sink is set *)
  vm_stack_bytes : int;
  vm_telemetry : Telemetry.Sink.t option;
      (** metrics (instrument scope ["vm/..."]: steps, dispatch by opcode
          class, GC pause/scan/free, alloc-size histogram, fault/trap
          counts), span tracing ([vm.run] and per-collection [gc] spans,
          fault/trap instants, heap counter track), and allocation-site
          heap profiling (site ids [fn:callee#k], stable across
          [--analysis] variants).  A sink's flight recorder receives
          [gc.begin]/[gc.end] spans, [gc.step]/[gc.emergency] instants
          and [vm.fault]/[vm.trap] instants, timestamped on the
          executed-instruction clock.  Step and dispatch counts are
          kept as plain ints and added to the metrics once, when the run
          ends (faulting and trapping runs included), so a sink costs
          nothing per step. *)
  vm_census : bool;
      (** sample a {!Gcheap.Census} after every completed collection
          (incremental cycles included) into [r_census]; off by
          default *)
}

val default_config : ?machine:Machdesc.t -> unit -> config

type result = {
  r_exit : int;
  r_output : string;
  r_instrs : int;
  r_cycles : int;
  r_gc_count : int;
  r_heap : Gcheap.Heap.stats;
  r_live_objects : int;  (** collectable objects alive at exit *)
  r_live_bytes : int;  (** their requested bytes *)
  r_gc_max_pause_words : int;
      (** largest single GC pause of the run on the deterministic
          words-of-work clock (stop-the-world/generational: per cycle;
          incremental: per increment).  Tracked unconditionally — it is
          how service latency attributes a GC share even when telemetry
          is off, and the one pause measure that responds to
          [vm_gc_pause_budget] *)
  r_gc_total_pause_words : int;
  r_census : Gcheap.Census.t list;
      (** per-collection heap censuses, oldest first; empty unless
          [vm_census] *)
}

exception Exit_program of int

val run : ?config:config -> ?args:int list -> Ir.Instr.program -> result
(** Run [main] to completion.
    @raise Fault on memory-safety violations or runtime errors.
    @raise Trap when a resource ceiling is exceeded.
    @raise Gcheap.Heap.Heap_corruption when [vm_check_integrity] is set and
    the sanitizer finds a violation. *)
