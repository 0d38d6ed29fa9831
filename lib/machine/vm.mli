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
  vm_heap : Gcheap.Heap.config;
      (** the collector's knobs ({!Gcheap.Heap.default_config} by
          default), passed to {!Gcheap.Heap.create} as they stand but
          for one rule of the VM's: the minor threshold is always
          [max 1024 (gc_threshold / 8)], whatever [minor_threshold]
          says.  [mode]: [Stw], the paper's collector, runs full
          collections only.  [Gen] runs minor collections at that
          threshold over young objects, roots and the dirty cards the
          store barrier records, and the major threshold tracks live
          growth.  [Inc] slices snapshot-at-the-beginning marking
          cycles into increments of at most [pause_budget_words] words
          of collector work at allocation GC points (the atomic
          snapshot and final mark may overrun it; overruns are counted
          in [vm/gc/incremental/budget_overruns]); the same store
          barrier grays overwritten old values while a cycle is
          marking, and allocation during a cycle is black.  Cycle
          counts are identical in all modes (the barrier charges
          nothing), and injected/forced collections are always full
          majors (soundly abandoning any in-flight incremental cycle),
          so unsafe programs fail identically under injected
          schedules.  [heap_limit_words] gates growth inside the heap
          and engages the [oom_policy] recovery path; its failures,
          and [failpoints] under [Trap], surface as
          {!Gcheap.Heap.Heap_exhausted}.  Unlike [vm_max_heap_bytes]
          it is not a trap checked after the fact. *)
  vm_max_instrs : int;  (** step ceiling; exceeding it raises [Trap] *)
  vm_max_heap_bytes : int;
      (** arena footprint ceiling; exceeding it raises [Trap] *)
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
          the pause budget of [vm_heap] *)
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
