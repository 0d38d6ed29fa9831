(** The virtual machine: executes IR programs against the conservative
    collector, with per-machine cycle accounting.

    GC roots are exactly what a conservative collector sees on a real
    machine: every frame's register file (stale values included — that is
    what makes conservative GC usually safe even for unannotated code), the
    VM stack region and the statics region (both uncollectable heap blocks,
    scanned as roots by {!Gcheap.Heap.collect}).

    Collections are triggered by allocation volume, and — when
    [vm_gc_schedule] injects them — at deterministic safepoints: every Nth
    instruction boundary, every allocation, or an explicit bit-set of
    instruction indices.  The dense modes model the paper's "multiple
    threads of control" assumption under which a collection may be
    triggered asynchronously; the explicit mode makes a specific
    interleaving reproducible, which is what the stress harness searches
    and shrinks over.

    Every load and store is checked against the heap map, so touching a
    prematurely collected (swept and poisoned) object is reported as a
    [GC safety violation] rather than silently reading garbage.

    Resource ceilings (instruction budget, heap footprint) raise [Trap]
    rather than [Fault]: exhausting a budget is a structured diagnostic,
    not a program error. *)

open Ir.Instr

exception Fault of string

type trap_kind = Step_limit | Heap_limit

let trap_kind_name = function
  | Step_limit -> "step-limit"
  | Heap_limit -> "heap-limit"

exception Trap of trap_kind * string

type config = {
  vm_machine : Machdesc.t;
  vm_gc_schedule : Schedule.t;  (** injected (forced) collection points *)
  vm_gc_at_calls_only : bool;
      (** restrict forced collections to call instructions — the
          environment assumed by the paper's optimization (4) *)
  vm_all_interior : bool;
      (** collector recognizes interior pointers everywhere (default); off
          reproduces the Extensions-section root-only mode *)
  vm_gc_threshold : int;  (** allocation volume between collections *)
  vm_gc_mode : Gcheap.Heap.gc_mode;
      (** [Stw] (default): full collections only, the paper's collector.
          [Gen]: generational — the store barrier feeds a page-granularity
          remembered set, minor collections run every
          [vm_gc_threshold / 8] allocated bytes, and the major threshold
          tracks live growth.  [Inc]: incremental — marking cycles are
          snapshot-at-the-beginning, time-sliced into steps of at most
          [vm_gc_pause_budget] words of collector work at allocation GC
          points; the same store barrier grays overwritten old values
          while a cycle is marking.  Cycle counts are identical in all
          modes: the barrier charges nothing. *)
  vm_gc_pause_budget : int;
      (** incremental-mode pause budget: words of collector work per
          increment, on the deterministic VM-tick/words clock (the
          snapshot root scan and the atomic final mark may overrun it;
          overruns are counted) *)
  vm_max_instrs : int;  (** step ceiling; exceeding it raises [Trap] *)
  vm_max_heap_bytes : int;
      (** arena footprint ceiling; exceeding it raises [Trap] *)
  vm_heap_limit_words : int;
      (** the allocator's hard ceiling in words ([0] = unlimited).
          Unlike [vm_max_heap_bytes] (a supervisory trap checked after
          the fact), this limit gates growth inside the heap itself and
          engages the [vm_oom_policy] recovery path *)
  vm_oom_policy : Gcheap.Heap.oom_policy;
      (** allocation-failure response: trap, or emergency-collect,
          retry, and expand within the limit (the default) *)
  vm_alloc_failpoints : Gcheap.Failpoint.t;
      (** injected allocation failures, mirroring [vm_gc_schedule];
          [Never] (the default) injects nothing *)
  vm_check_integrity : bool;
      (** run the heap sanitizer after every collection; violations raise
          {!Gcheap.Heap.Heap_corruption} *)
  vm_final_collect : bool;
      (** collect once after [main] returns, so the result's live-heap
          summary is comparable across schedules and builds *)
  vm_gc_point_sink : (int -> string -> unit) option;
      (** also called for every fired injected collection — unlike
          [r_gc_points], a sink observes points even when the run later
          faults, which is what the schedule shrinker replays *)
  vm_stack_bytes : int;
  vm_telemetry : Telemetry.Sink.t option;
      (** metrics / span tracing / heap profiling; [None] costs one
          dead-branch test per instruction *)
  vm_census : bool;
      (** sample a {!Gcheap.Census} after every completed collection
          (incremental cycles included); off by default — sampling walks
          every block, so it is an observation knob, not part of the
          request identity *)
}

let default_config ?(machine = Machdesc.sparc10) () =
  {
    vm_machine = machine;
    vm_gc_schedule = Schedule.Auto;
    vm_gc_at_calls_only = false;
    vm_all_interior = true;
    vm_gc_threshold = 256 * 1024;
    vm_gc_mode = Gcheap.Heap.Stw;
    vm_gc_pause_budget = 1024;
    vm_max_instrs = 400_000_000;
    vm_max_heap_bytes = 1 lsl 30;
    vm_heap_limit_words = 0;
    vm_oom_policy = Gcheap.Heap.Collect_expand;
    vm_alloc_failpoints = Gcheap.Failpoint.Never;
    vm_check_integrity = false;
    vm_final_collect = false;
    vm_gc_point_sink = None;
    vm_stack_bytes = 256 * 1024;
    vm_telemetry = None;
    vm_census = false;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

(* Alloc-call instructions are keyed by physical identity: the program
   structure is static during a run, and structurally equal calls at
   different sites must stay distinct. *)
module Instrtbl = Hashtbl.Make (struct
  type t = instr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let alloc_builtin = function
  | "malloc" | "GC_malloc" | "GC_malloc_atomic" | "calloc" | "realloc" -> true
  | _ -> false

(* Site ids are [fn:callee#k] with [k] the ordinal of the call among
   same-callee alloc calls of the function, counted in static
   block-label order.  Annotation passes insert or remove [KeepLive]
   markers but never alloc calls, so ids join across
   [--analysis none|flow] builds of one program. *)
let site_table (p : program) =
  let tab = Instrtbl.create 64 in
  List.iter
    (fun (f : func) ->
      let ord = Hashtbl.create 8 in
      let blocks =
        List.sort (fun a b -> compare a.b_label b.b_label) f.fn_blocks
      in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Call (_, callee, _) when alloc_builtin callee ->
                  let k =
                    Option.value ~default:0 (Hashtbl.find_opt ord callee)
                  in
                  Hashtbl.replace ord callee (k + 1);
                  Instrtbl.replace tab i
                    (Printf.sprintf "%s:%s#%d" f.fn_name callee k)
              | _ -> ())
            b.b_instrs)
        blocks)
    p.p_funcs;
  tab

let dispatch_class_names =
  [| "mov"; "alu"; "rel"; "load"; "store"; "push"; "call"; "keep_live";
     "branch" |]

let class_of_instr = function
  | Mov _ | Opaque _ -> 0
  | Bin _ -> 1
  | Rel _ -> 2
  | Load _ -> 3
  | Store _ -> 4
  | Push _ -> 5
  | Call _ -> 6
  | KeepLive _ -> 7

type tele = {
  tl_on : bool;
  tl_trace : Telemetry.Trace.t option;
  tl_prof : Telemetry.Heap_profiler.t option;
  tl_rec : Telemetry.Flight_recorder.t option;
  tl_steps : Telemetry.Metrics.counter;
  tl_dispatch : Telemetry.Metrics.counter array;  (** by {!class_of_instr} *)
  tl_gc : Telemetry.Metrics.counter;
  tl_gc_minor : Telemetry.Metrics.counter;
  tl_gc_emergency : Telemetry.Metrics.counter;
      (** collect-expand cycles run on allocation failure *)
  tl_gc_pause : Telemetry.Metrics.histogram;  (** nanoseconds *)
  tl_gc_minor_pause : Telemetry.Metrics.histogram;  (** nanoseconds *)
  tl_gc_major_pause : Telemetry.Metrics.histogram;  (** nanoseconds *)
  tl_gc_minor_scan : Telemetry.Metrics.histogram;
      (** pause work per minor cycle in words: words traced by mark plus
          words reclaimed by sweep — the deterministic "VM-tick" pause
          measure (no instructions retire during a collection, so the
          collector's word traffic is the pause) *)
  tl_gc_major_scan : Telemetry.Metrics.histogram;  (** per major cycle *)
  tl_gc_inc_pause : Telemetry.Metrics.histogram;
      (** per-increment pause in words of collector work (same clock as
          the scan histograms), incremental mode only *)
  tl_gc_inc_steps : Telemetry.Metrics.counter;  (** increments run *)
  tl_gc_inc_final : Telemetry.Metrics.counter;  (** atomic final marks *)
  tl_gc_inc_grays : Telemetry.Metrics.counter;
      (** old values the SATB barrier grayed *)
  tl_gc_inc_overruns : Telemetry.Metrics.counter;
      (** increments that exceeded the pause budget *)
  tl_gc_promoted : Telemetry.Metrics.counter;
  tl_gc_cards : Telemetry.Metrics.counter;  (** dirty cards scanned *)
  tl_gc_words : Telemetry.Metrics.counter;
  tl_gc_objs_freed : Telemetry.Metrics.counter;
  tl_gc_bytes_freed : Telemetry.Metrics.counter;
  tl_heap_foot : Telemetry.Metrics.gauge;
  tl_alloc_bytes : Telemetry.Metrics.histogram;
  tl_faults : Telemetry.Metrics.counter;
  tl_traps : Telemetry.Metrics.counter;
  tl_sites : string Instrtbl.t;
  mutable tl_cur_site : string;
}

let make_tele sink p =
  let m = Telemetry.Sink.metrics sink in
  let m = Telemetry.Metrics.scope m "vm" in
  let trace = match sink with Some s -> s.Telemetry.Sink.trace | None -> None in
  let prof =
    match sink with Some s -> s.Telemetry.Sink.profiler | None -> None
  in
  {
    tl_on = sink <> None;
    tl_trace = trace;
    tl_prof = prof;
    tl_rec = Telemetry.Sink.recorder sink;
    tl_steps = Telemetry.Metrics.counter m "steps";
    tl_dispatch =
      Array.map
        (fun c -> Telemetry.Metrics.counter m ("dispatch/" ^ c))
        dispatch_class_names;
    tl_gc = Telemetry.Metrics.counter m "gc/collections";
    tl_gc_minor = Telemetry.Metrics.counter m "gc/minor/collections";
    tl_gc_emergency = Telemetry.Metrics.counter m "gc/emergency_collections";
    tl_gc_pause = Telemetry.Metrics.histogram m "gc/pause_ns";
    tl_gc_minor_pause = Telemetry.Metrics.histogram m "gc/minor/pause_ns";
    tl_gc_major_pause = Telemetry.Metrics.histogram m "gc/major/pause_ns";
    tl_gc_minor_scan = Telemetry.Metrics.histogram m "gc/minor/pause_words";
    tl_gc_major_scan = Telemetry.Metrics.histogram m "gc/major/pause_words";
    tl_gc_inc_pause = Telemetry.Metrics.histogram m "gc/incremental/pause_words";
    tl_gc_inc_steps = Telemetry.Metrics.counter m "gc/incremental/increments";
    tl_gc_inc_final = Telemetry.Metrics.counter m "gc/incremental/final_marks";
    tl_gc_inc_grays = Telemetry.Metrics.counter m "gc/incremental/barrier_grays";
    tl_gc_inc_overruns =
      Telemetry.Metrics.counter m "gc/incremental/budget_overruns";
    tl_gc_promoted = Telemetry.Metrics.counter m "gc/promotions";
    tl_gc_cards = Telemetry.Metrics.counter m "gc/cards_scanned";
    tl_gc_words = Telemetry.Metrics.counter m "gc/words_scanned";
    tl_gc_objs_freed = Telemetry.Metrics.counter m "gc/objects_freed";
    tl_gc_bytes_freed = Telemetry.Metrics.counter m "gc/bytes_freed";
    tl_heap_foot = Telemetry.Metrics.gauge m "heap/footprint";
    tl_alloc_bytes = Telemetry.Metrics.histogram m "alloc/bytes";
    tl_faults = Telemetry.Metrics.counter m "faults";
    tl_traps = Telemetry.Metrics.counter m "traps";
    tl_sites = (match prof with Some _ -> site_table p | None -> Instrtbl.create 1);
    tl_cur_site = "?";
  }

type frame = {
  fr_func : func;
  fr_regs : int array;
  fr_base : int;  (** frame base address in the VM stack region *)
  fr_blocks : (label, block) Hashtbl.t;
  mutable fr_block : block;
  mutable fr_pc : instr list;  (** instructions left in the current block *)
  fr_dst : reg option;  (** caller register receiving our result *)
}

type state = {
  cfg : config;
  heap : Gcheap.Heap.t;
  funcs : (string, func) Hashtbl.t;
  statics_base : int;
  stack_base : int;
  mutable sp : int;  (** next free offset within the stack region *)
  mutable frames : frame list;  (** innermost first *)
  mutable depth : int;  (** call depth, for frames with empty frame areas *)
  out : Buffer.t;
  mutable instrs : int;
  mutable cycles : int;
  mutable gc_count : int;
  mutable inc_grays_seen : int;
      (** barrier grays already ticked into telemetry (incremental mode:
          the SATB barrier accrues during mutator time, between steps) *)
  mutable rand_state : int;
  mutable arg_queue : int list;  (** reversed: arguments pushed so far *)
  mutable at_call : bool;  (** the last executed instruction was a call *)
  mutable gc_points : (int * string) list;
      (** injected collections that actually fired: safepoint index and a
          program-location description (innermost first) *)
  mutable gc_max_pause_words : int;
      (** largest single GC pause this run, in words of collector work
          (stop-the-world/generational: per cycle; incremental: per
          step).  Tracked unconditionally — plain int stores off the
          cycle clock — so the service can attribute latency to GC even
          with telemetry off *)
  mutable gc_total_pause_words : int;
  mutable censuses : Gcheap.Census.t list;
      (** heap censuses sampled at collection boundaries when
          [vm_census]; reversed (newest first) *)
  tele : tele;
}

type result = {
  r_exit : int;
  r_output : string;
  r_instrs : int;
  r_cycles : int;
  r_gc_count : int;
  r_heap : Gcheap.Heap.stats;
  r_gc_points : (int * string) list;
      (** fired injected collections, in execution order *)
  r_live_objects : int;  (** collectable objects alive at exit *)
  r_live_bytes : int;  (** their requested bytes *)
  r_gc_max_pause_words : int;
      (** largest single GC pause, words of collector work; responds to
          the pause budget in incremental mode *)
  r_gc_total_pause_words : int;
  r_census : Gcheap.Census.t list;
      (** per-collection heap censuses (oldest first); empty unless
          [vm_census] *)
}

exception Exit_program of int

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let load (cfg : config) (p : program) (statics_relocs : (int * int) list) :
    state =
  let heap_config = Gcheap.Heap.default_config () in
  heap_config.Gcheap.Heap.gc_threshold <- cfg.vm_gc_threshold;
  heap_config.Gcheap.Heap.all_interior <- cfg.vm_all_interior;
  heap_config.Gcheap.Heap.generational <- cfg.vm_gc_mode = Gcheap.Heap.Gen;
  heap_config.Gcheap.Heap.incremental <- cfg.vm_gc_mode = Gcheap.Heap.Inc;
  heap_config.Gcheap.Heap.pause_budget_words <- max 1 cfg.vm_gc_pause_budget;
  heap_config.Gcheap.Heap.minor_threshold <- max 1024 (cfg.vm_gc_threshold / 8);
  heap_config.Gcheap.Heap.heap_limit_words <- cfg.vm_heap_limit_words;
  heap_config.Gcheap.Heap.oom_policy <- cfg.vm_oom_policy;
  let heap = Gcheap.Heap.create ~config:heap_config () in
  heap.Gcheap.Heap.failpoints <- cfg.vm_alloc_failpoints;
  let statics_base =
    Gcheap.Heap.alloc ~kind:Gcheap.Block.Uncollectable heap
      (max 8 (Bytes.length p.p_statics))
  in
  Bytes.iteri
    (fun i c ->
      Gcheap.Mem.store heap.Gcheap.Heap.mem ~width:1 (statics_base + i)
        (Char.code c))
    p.p_statics;
  List.iter
    (fun (slot, target) ->
      Gcheap.Mem.store_word heap.Gcheap.Heap.mem (statics_base + slot)
        (statics_base + target))
    statics_relocs;
  let stack_base =
    Gcheap.Heap.alloc ~kind:Gcheap.Block.Stack heap cfg.vm_stack_bytes
  in
  let funcs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.fn_name f) p.p_funcs;
  let tele = make_tele cfg.vm_telemetry p in
  (match tele.tl_prof with
  | Some pr ->
      heap.Gcheap.Heap.on_free <-
        Some (fun ~addr ~bytes:_ -> Telemetry.Heap_profiler.on_free pr ~addr)
  | None -> ());
  {
    cfg;
    heap;
    funcs;
    statics_base;
    stack_base;
    sp = 0;
    frames = [];
    depth = 0;
    out = Buffer.create 256;
    instrs = 0;
    cycles = 0;
    gc_count = 0;
    inc_grays_seen = 0;
    rand_state = 42;
    arg_queue = [];
    at_call = false;
    gc_points = [];
    gc_max_pause_words = 0;
    gc_total_pause_words = 0;
    censuses = [];
    tele;
  }

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let collect ?(trigger = "auto") ?(generation = Gcheap.Heap.Major) st =
  let tl = st.tele in
  let minor = generation = Gcheap.Heap.Minor in
  let gen_name = if minor then "minor" else "major" in
  let t0 = if tl.tl_on then Unix.gettimeofday () else 0. in
  (match tl.tl_trace with
  | Some tr ->
      Telemetry.Trace.begin_span tr
        ~args:
          [
            ("trigger", Telemetry.Json.Str trigger);
            ("gen", Telemetry.Json.Str gen_name);
          ]
        "gc"
  | None -> ());
  (match tl.tl_rec with
  | Some fr ->
      Telemetry.Flight_recorder.record fr ~ts:st.instrs "gc.begin"
        [
          ("trigger", Telemetry.Json.Str trigger);
          ("gen", Telemetry.Json.Str gen_name);
        ]
  | None -> ());
  (match tl.tl_prof with
  | Some pr -> Telemetry.Heap_profiler.set_tick pr st.instrs
  | None -> ());
  let hs = st.heap.Gcheap.Heap.stats in
  let words0 = hs.Gcheap.Heap.words_scanned in
  let objs0 = hs.Gcheap.Heap.objects_freed in
  let bytes0 = hs.Gcheap.Heap.bytes_freed in
  let promoted0 = hs.Gcheap.Heap.promoted in
  let cards0 = hs.Gcheap.Heap.cards_scanned in
  st.gc_count <- st.gc_count + 1;
  let roots =
    List.concat_map (fun fr -> Array.to_list fr.fr_regs) st.frames
  in
  (* only the live prefix of the stack is scanned, as on a real machine *)
  let live_stack = (st.stack_base, st.stack_base + st.sp) in
  (* the gc.end event must land even if the collection raises (heap
     corruption under the sanitizer), so span nesting always balances *)
  Fun.protect
    ~finally:(fun () ->
      (* deterministic pause measure on the words-of-work clock: words
         the marker traced plus words the sweeper reclaimed.  Tracked
         unconditionally (plain int stores, no cycle impact) — this is
         the per-request GC share the service reports *)
      let pause_words =
        hs.Gcheap.Heap.words_scanned - words0
        + ((hs.Gcheap.Heap.bytes_freed - bytes0 + 7) / 8)
      in
      st.gc_max_pause_words <- max st.gc_max_pause_words pause_words;
      st.gc_total_pause_words <- st.gc_total_pause_words + pause_words;
      (match tl.tl_rec with
      | Some fr ->
          Telemetry.Flight_recorder.record fr ~ts:st.instrs "gc.end"
            [
              ("trigger", Telemetry.Json.Str trigger);
              ("gen", Telemetry.Json.Str gen_name);
              ("pause_words", Telemetry.Json.Int pause_words);
            ]
      | None -> ());
      if st.cfg.vm_census then
        st.censuses <- Gcheap.Census.take st.heap :: st.censuses)
    (fun () ->
      ignore
        (Gcheap.Heap.collect ~generation ~extra_roots:roots
           ~extra_ranges:[ live_stack ] st.heap));
  if tl.tl_on then begin
    let open Telemetry in
    Metrics.incr tl.tl_gc;
    if minor then Metrics.incr tl.tl_gc_minor;
    let pause_ns = Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9) in
    Metrics.observe tl.tl_gc_pause pause_ns;
    Metrics.observe
      (if minor then tl.tl_gc_minor_pause else tl.tl_gc_major_pause)
      pause_ns;
    Metrics.observe
      (if minor then tl.tl_gc_minor_scan else tl.tl_gc_major_scan)
      (hs.Gcheap.Heap.words_scanned - words0
      + ((hs.Gcheap.Heap.bytes_freed - bytes0 + 7) / 8));
    Metrics.add tl.tl_gc_promoted (hs.Gcheap.Heap.promoted - promoted0);
    Metrics.add tl.tl_gc_cards (hs.Gcheap.Heap.cards_scanned - cards0);
    Metrics.add tl.tl_gc_words (hs.Gcheap.Heap.words_scanned - words0);
    Metrics.add tl.tl_gc_objs_freed (hs.Gcheap.Heap.objects_freed - objs0);
    Metrics.add tl.tl_gc_bytes_freed (hs.Gcheap.Heap.bytes_freed - bytes0);
    let foot = Gcheap.Heap.footprint st.heap in
    Metrics.set tl.tl_heap_foot foot;
    match tl.tl_trace with
    | Some tr ->
        Trace.end_span tr "gc";
        Trace.counter tr "heap"
          [
            ("footprint", foot);
            ( "live_bytes",
              hs.Gcheap.Heap.bytes_allocated - hs.Gcheap.Heap.bytes_freed );
          ]
    | None -> ()
  end;
  if st.cfg.vm_check_integrity then Gcheap.Heap.assert_integrity st.heap

(** Where execution currently stands, for reporting a collection point:
    innermost function, block, and the instruction just executed. *)
let point_context st =
  match st.frames with
  | [] -> "program exit"
  | fr :: _ ->
      let total = List.length fr.fr_block.b_instrs in
      let executed = total - List.length fr.fr_pc in
      let where =
        if executed = 0 then "block entry"
        else
          Format.asprintf "after %a" Ir.Instr.pp_instr
            (List.nth fr.fr_block.b_instrs (executed - 1))
      in
      Printf.sprintf "%s, L%d, %s" fr.fr_func.fn_name fr.fr_block.b_label
        where

let forced_collect st =
  let ctx = point_context st in
  st.gc_points <- (st.instrs, ctx) :: st.gc_points;
  Option.iter (fun sink -> sink st.instrs ctx) st.cfg.vm_gc_point_sink;
  collect ~trigger:"forced" st

(** Is an injected collection due at the current safepoint (the boundary
    after instruction [st.instrs])? *)
let forced_gc_due st =
  (match st.cfg.vm_gc_schedule with
  | Schedule.Auto | Schedule.At_allocs -> false
  | Schedule.Every n -> n > 0 && st.instrs mod n = 0
  | Schedule.At pts -> Schedule.points_mem pts st.instrs)
  && ((not st.cfg.vm_gc_at_calls_only) || st.at_call)

(** One increment of the SATB marker, at an allocation GC point.  Same
    root discipline as {!collect}: the register file as word values, the
    live stack prefix as a range. *)
let incremental_step st =
  let tl = st.tele in
  let hs = st.heap.Gcheap.Heap.stats in
  let collections0 = hs.Gcheap.Heap.collections in
  let final0 = hs.Gcheap.Heap.final_marks in
  let overruns0 = hs.Gcheap.Heap.budget_overruns in
  let objs0 = hs.Gcheap.Heap.objects_freed in
  let bytes0 = hs.Gcheap.Heap.bytes_freed in
  (match tl.tl_prof with
  | Some pr -> Telemetry.Heap_profiler.set_tick pr st.instrs
  | None -> ());
  let roots =
    List.concat_map (fun fr -> Array.to_list fr.fr_regs) st.frames
  in
  let live_stack = (st.stack_base, st.stack_base + st.sp) in
  let spent =
    Gcheap.Incremental.step ~extra_roots:roots ~extra_ranges:[ live_stack ]
      st.heap
  in
  let completed = hs.Gcheap.Heap.collections - collections0 in
  st.gc_count <- st.gc_count + completed;
  (* each increment is a mutator pause of [spent] words of work *)
  st.gc_max_pause_words <- max st.gc_max_pause_words spent;
  st.gc_total_pause_words <- st.gc_total_pause_words + spent;
  (match tl.tl_rec with
  | Some fr ->
      Telemetry.Flight_recorder.record fr ~ts:st.instrs "gc.step"
        [
          ("spent_words", Telemetry.Json.Int spent);
          ("completed", Telemetry.Json.Int completed);
        ]
  | None -> ());
  if st.cfg.vm_census && completed > 0 then
    st.censuses <- Gcheap.Census.take st.heap :: st.censuses;
  if tl.tl_on then begin
    let open Telemetry in
    Metrics.incr tl.tl_gc_inc_steps;
    Metrics.observe tl.tl_gc_inc_pause spent;
    Metrics.add tl.tl_gc_inc_final (hs.Gcheap.Heap.final_marks - final0);
    Metrics.add tl.tl_gc_inc_overruns
      (hs.Gcheap.Heap.budget_overruns - overruns0);
    (* barrier grays accrue during mutator time, between steps *)
    Metrics.add tl.tl_gc_inc_grays
      (hs.Gcheap.Heap.barrier_grays - st.inc_grays_seen);
    st.inc_grays_seen <- hs.Gcheap.Heap.barrier_grays;
    Metrics.add tl.tl_gc_words spent;
    Metrics.add tl.tl_gc_objs_freed (hs.Gcheap.Heap.objects_freed - objs0);
    Metrics.add tl.tl_gc_bytes_freed (hs.Gcheap.Heap.bytes_freed - bytes0);
    if completed > 0 then begin
      Metrics.add tl.tl_gc completed;
      Metrics.set tl.tl_heap_foot (Gcheap.Heap.footprint st.heap)
    end
  end;
  if completed > 0 && st.cfg.vm_check_integrity then
    Gcheap.Heap.assert_integrity st.heap

let maybe_collect_for_alloc st =
  match st.cfg.vm_gc_schedule with
  | Schedule.At_allocs -> forced_collect st
  | _ ->
      if st.cfg.vm_gc_mode = Gcheap.Heap.Inc then begin
        if
          Gcheap.Incremental.active st.heap
          || Gcheap.Heap.should_collect st.heap
        then incremental_step st
      end
      else if Gcheap.Heap.should_collect st.heap then collect st
      else if Gcheap.Heap.should_collect_minor st.heap then
        collect ~generation:Gcheap.Heap.Minor st

let check_heap_ceiling st =
  let used = Gcheap.Heap.footprint st.heap in
  if used > st.cfg.vm_max_heap_bytes then
    raise
      (Trap
         ( Heap_limit,
           Printf.sprintf "heap ceiling exceeded: %d bytes in use, limit %d"
             used st.cfg.vm_max_heap_bytes ))

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let push_frame st (f : func) (args : int list) (dst : reg option) =
  let frame_size = (f.fn_frame + 15) / 16 * 16 in
  st.depth <- st.depth + 1;
  if
    st.sp + frame_size > st.cfg.vm_stack_bytes
    || st.depth > st.cfg.vm_stack_bytes / 64
  then raise (Fault "stack overflow");
  let base = st.stack_base + st.sp in
  st.sp <- st.sp + frame_size;
  let regs = Array.make (max f.fn_nreg 1) 0 in
  regs.(fp) <- base;
  (try
     List.iter2 (fun r v -> regs.(r) <- v) f.fn_params args
   with Invalid_argument _ ->
     raise (Fault (Printf.sprintf "arity mismatch calling %s" f.fn_name)));
  let blocks = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace blocks b.b_label b) f.fn_blocks;
  let entry = List.hd f.fn_blocks in
  st.frames <-
    {
      fr_func = f;
      fr_regs = regs;
      fr_base = base;
      fr_blocks = blocks;
      fr_block = entry;
      fr_pc = entry.b_instrs;
      fr_dst = dst;
    }
    :: st.frames

let pop_frame st (ret : int) =
  match st.frames with
  | [] -> raise (Fault "return with no frame")
  | fr :: rest ->
      let frame_size = (fr.fr_func.fn_frame + 15) / 16 * 16 in
      (* clear the dead frame so stale locals do not linger as roots *)
      if frame_size > 0 then
        Gcheap.Mem.fill st.heap.Gcheap.Heap.mem fr.fr_base frame_size '\000';
      st.sp <- st.sp - frame_size;
      st.depth <- st.depth - 1;
      st.frames <- rest;
      (match (fr.fr_dst, rest) with
      | Some d, caller :: _ -> caller.fr_regs.(d) <- ret
      | _, _ -> ());
      (match rest with [] -> raise (Exit_program ret) | _ -> ())

(* ------------------------------------------------------------------ *)
(* Memory access with safety checking                                  *)
(* ------------------------------------------------------------------ *)

let check_access st addr len what =
  if not (Gcheap.Heap.valid_access st.heap addr len) then
    raise
      (Fault
         (Printf.sprintf
            "GC safety violation: %s of %d byte(s) at %#x hits unallocated \
             or collected memory"
            what len addr));
  match st.tele.tl_prof with
  | Some pr -> (
      (* last-use tracking: resolve to the object base.  [extent_of]
         touches no heap counters, so profiling leaves stats intact. *)
      match Gcheap.Heap.extent_of st.heap addr with
      | Some (base, _) ->
          Telemetry.Heap_profiler.set_tick pr st.instrs;
          Telemetry.Heap_profiler.on_use pr ~addr:base
      | None -> ())
  | None -> ()

let load_mem st width addr =
  check_access st addr (bytes_of_width width) "load";
  Gcheap.Mem.load st.heap.Gcheap.Heap.mem ~width:(bytes_of_width width) addr

let store_mem st width addr v =
  check_access st addr (bytes_of_width width) "store";
  (* generational write barrier; charges no cycles in either gc mode *)
  Gcheap.Heap.note_store st.heap addr (bytes_of_width width);
  Gcheap.Mem.store st.heap.Gcheap.Heap.mem ~width:(bytes_of_width width) addr v

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let cstring st addr =
  check_access st addr 1 "string read";
  Gcheap.Mem.load_cstring st.heap.Gcheap.Heap.mem addr

let charge st n = st.cycles <- st.cycles + n

let alloc ?kind st n =
  maybe_collect_for_alloc st;
  let a = Gcheap.Heap.alloc ?kind st.heap (max n 1) in
  if st.tele.tl_on then begin
    Telemetry.Metrics.observe st.tele.tl_alloc_bytes (max n 1);
    match st.tele.tl_prof with
    | Some pr ->
        Telemetry.Heap_profiler.set_tick pr st.instrs;
        Telemetry.Heap_profiler.on_alloc pr ~site:st.tele.tl_cur_site ~addr:a
          ~bytes:(max n 1)
    | None -> ()
  end;
  check_heap_ceiling st;
  a

(* printf with the subset of conversions the workloads use *)
let do_printf st fmt args =
  let args = ref args in
  let next () =
    match !args with
    | [] -> raise (Fault "printf: not enough arguments")
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let buf = Buffer.create 32 in
  let rec loop i =
    if i < n then
      if fmt.[i] = '%' && i + 1 < n then begin
        (match fmt.[i + 1] with
        | 'd' | 'i' -> Buffer.add_string buf (string_of_int (next ()))
        | 'l' ->
            (* %ld *)
            Buffer.add_string buf (string_of_int (next ()))
        | 'x' -> Buffer.add_string buf (Printf.sprintf "%x" (next ()))
        | 'c' -> Buffer.add_char buf (Char.chr (next () land 0xff))
        | 's' -> Buffer.add_string buf (cstring st (next ()))
        | 'p' -> Buffer.add_string buf (Printf.sprintf "0x%x" (next ()))
        | '%' -> Buffer.add_char buf '%'
        | c -> raise (Fault (Printf.sprintf "printf: unsupported %%%c" c)));
        let skip =
          match fmt.[i + 1] with
          | 'l' when i + 2 < n && (fmt.[i + 2] = 'd' || fmt.[i + 2] = 'u') -> 3
          | _ -> 2
        in
        loop (i + skip)
      end
      else begin
        Buffer.add_char buf fmt.[i];
        loop (i + 1)
      end
  in
  loop 0;
  Buffer.add_buffer st.out buf;
  Buffer.length buf

let builtin st name (args : int list) : int =
  let m = st.cfg.vm_machine in
  charge st m.Machdesc.md_cost_call;
  match (name, args) with
  | ("malloc" | "GC_malloc"), [ n ] ->
      charge st 40;
      alloc st n
  | "GC_malloc_atomic", [ n ] ->
      charge st 40;
      alloc ~kind:Gcheap.Block.Atomic st n
  | "calloc", [ a; b ] ->
      charge st 45;
      alloc st (a * b)
  | "realloc", [ p; n ] ->
      charge st 50;
      if p = 0 then alloc st n
      else begin
        let fresh = alloc st n in
        (match Gcheap.Heap.extent_of st.heap p with
        | Some (base, size) ->
            let old_len = size - (p - base) in
            let len = min n old_len in
            charge st (len / 8);
            Gcheap.Heap.note_store st.heap fresh len;
            Gcheap.Mem.blit st.heap.Gcheap.Heap.mem ~src:p ~dst:fresh len
        | None -> raise (Fault "realloc of non-heap pointer"));
        fresh
      end
  | "free", [ _ ] -> 0 (* removed: the collector reclaims *)
  | "GC_base", [ p ] ->
      charge st 6;
      Option.value ~default:0 (Gcheap.Heap.base_of st.heap p)
  | "GC_same_obj", [ p; q ] -> (
      charge st 15;
      try Gcheap.Heap.same_obj st.heap p q
      with Gcheap.Heap.Check_failure msg -> raise (Fault msg))
  | "GC_check_range", [ p; n ] -> (
      charge st 10;
      try Gcheap.Heap.check_range st.heap p n
      with Gcheap.Heap.Check_failure msg -> raise (Fault msg))
  | "GC_check_base", [ v ] -> (
      charge st 8;
      try Gcheap.Heap.check_base st.heap v
      with Gcheap.Heap.Check_failure msg -> raise (Fault msg))
  | "GC_pre_incr", [ pp; delta ] -> (
      charge st 18;
      check_access st pp 8 "GC_pre_incr";
      Gcheap.Heap.note_store st.heap pp 8;
      try Gcheap.Heap.pre_incr st.heap pp delta
      with Gcheap.Heap.Check_failure msg -> raise (Fault msg))
  | "GC_post_incr", [ pp; delta ] -> (
      charge st 18;
      check_access st pp 8 "GC_post_incr";
      Gcheap.Heap.note_store st.heap pp 8;
      try Gcheap.Heap.post_incr st.heap pp delta
      with Gcheap.Heap.Check_failure msg -> raise (Fault msg))
  | "GC_collect", [] ->
      collect ~trigger:"explicit" st;
      0
  | "strlen", [ s ] ->
      let v = String.length (cstring st s) in
      charge st (2 * v);
      v
  | "strcpy", [ d; s ] ->
      let v = cstring st s in
      charge st (2 * String.length v);
      check_access st d (String.length v + 1) "strcpy";
      Gcheap.Heap.note_store st.heap d (String.length v + 1);
      Gcheap.Mem.store_cstring st.heap.Gcheap.Heap.mem d v;
      d
  | "strcat", [ d; s ] ->
      let dv = cstring st d and sv = cstring st s in
      charge st (2 * (String.length dv + String.length sv));
      check_access st (d + String.length dv) (String.length sv + 1) "strcat";
      Gcheap.Heap.note_store st.heap (d + String.length dv)
        (String.length sv + 1);
      Gcheap.Mem.store_cstring st.heap.Gcheap.Heap.mem (d + String.length dv) sv;
      d
  | "strcmp", [ a; b ] ->
      let av = cstring st a and bv = cstring st b in
      charge st (2 * min (String.length av) (String.length bv));
      compare av bv
  | "strncmp", [ a; b; n ] ->
      let take s = if String.length s > n then String.sub s 0 n else s in
      let av = take (cstring st a) and bv = take (cstring st b) in
      charge st (2 * n);
      compare av bv
  | "strchr", [ s; c ] -> (
      let v = cstring st s in
      charge st (2 * String.length v);
      match String.index_opt v (Char.chr (c land 0xff)) with
      | Some i -> s + i
      | None -> 0)
  | ("memcpy" | "memmove"), [ d; s; n ] ->
      charge st (max 4 (n / 4));
      if n > 0 then begin
        check_access st d n "memcpy dst";
        check_access st s n "memcpy src";
        Gcheap.Heap.note_store st.heap d n;
        Gcheap.Mem.blit st.heap.Gcheap.Heap.mem ~src:s ~dst:d n
      end;
      d
  | "memset", [ d; c; n ] ->
      charge st (max 4 (n / 4));
      if n > 0 then begin
        check_access st d n "memset";
        Gcheap.Heap.note_store st.heap d n;
        Gcheap.Mem.fill st.heap.Gcheap.Heap.mem d n (Char.chr (c land 0xff))
      end;
      d
  | "putchar", [ c ] ->
      charge st 10;
      Buffer.add_char st.out (Char.chr (c land 0xff));
      c
  | "puts", [ s ] ->
      let v = cstring st s in
      charge st (10 + String.length v);
      Buffer.add_string st.out v;
      Buffer.add_char st.out '\n';
      0
  | "print_int", [ v ] ->
      charge st 10;
      Buffer.add_string st.out (string_of_int v);
      0
  | "print_str", [ s ] ->
      let v = cstring st s in
      charge st (10 + String.length v);
      Buffer.add_string st.out v;
      0
  | "printf", fmt_addr :: rest ->
      let fmt = cstring st fmt_addr in
      charge st (10 + String.length fmt);
      do_printf st fmt rest
  | "abort", [] -> raise (Fault "abort() called")
  | "exit", [ code ] -> raise (Exit_program code)
  | "rand", [] ->
      st.rand_state <- (st.rand_state * 1103515245) + 12345;
      (st.rand_state asr 16) land 0x3fffffff
  | "srand", [ seed ] ->
      st.rand_state <- seed;
      0
  | "abs", [ v ] -> abs v
  | "assert_true", [ v ] ->
      if v = 0 then raise (Fault "assertion failed");
      0
  | "fread", _ -> 0
  | "scanf", _ -> raise (Fault "scanf is not executable in the VM")
  | _ ->
      raise
        (Fault
           (Printf.sprintf "unknown builtin %s/%d" name (List.length args)))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let operand st fr = function
  | Reg r -> fr.fr_regs.(r)
  | Imm n -> n
  | Glob off -> st.statics_base + off

let eval_bin op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Mod -> if b = 0 then raise (Fault "division by zero") else a mod b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b

let eval_rel op a b =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

let instr_cost st fr (i : instr) =
  let m = st.cfg.vm_machine in
  match i with
  | Mov _ | Opaque _ -> m.Machdesc.md_cost_mov
  | Bin (op, d, a, _) ->
      let base =
        match op with
        | Mul -> m.Machdesc.md_cost_mul
        | Div | Mod -> m.Machdesc.md_cost_div
        | _ -> m.Machdesc.md_cost_alu
      in
      (* two-operand machines need a move when dst <> first source *)
      let penalty =
        if m.Machdesc.md_two_operand && a <> Reg d then
          m.Machdesc.md_cost_mov
        else 0
      in
      ignore fr;
      base + penalty
  | Rel _ -> m.Machdesc.md_cost_alu + 1
  | Load _ -> m.Machdesc.md_cost_load
  | Store _ -> m.Machdesc.md_cost_store
  | Push _ -> m.Machdesc.md_cost_mov
  | Call _ -> 0 (* overhead charged at dispatch, body separately *)
  | KeepLive _ -> 0

let rec step st =
  match st.frames with
  | [] -> raise (Fault "no frame")
  | fr :: _ -> (
      match fr.fr_pc with
      | i :: rest ->
          fr.fr_pc <- rest;
          st.instrs <- st.instrs + 1;
          st.cycles <- st.cycles + instr_cost st fr i;
          st.at_call <- (match i with Call _ -> true | _ -> false);
          if st.tele.tl_on then begin
            Telemetry.Metrics.incr st.tele.tl_steps;
            Telemetry.Metrics.incr st.tele.tl_dispatch.(class_of_instr i);
            match st.tele.tl_prof with
            | Some _ -> (
                match Instrtbl.find_opt st.tele.tl_sites i with
                | Some site -> st.tele.tl_cur_site <- site
                | None -> ())
            | None -> ()
          end;
          (match i with
          | Mov (d, s) -> fr.fr_regs.(d) <- operand st fr s
          | Opaque (d, s) -> fr.fr_regs.(d) <- operand st fr s
          | Bin (op, d, a, b) ->
              fr.fr_regs.(d) <- eval_bin op (operand st fr a) (operand st fr b)
          | Rel (op, d, a, b) ->
              fr.fr_regs.(d) <- eval_rel op (operand st fr a) (operand st fr b)
          | Load (w, d, base, off) ->
              fr.fr_regs.(d) <-
                load_mem st w (operand st fr base + operand st fr off)
          | Store (w, src, base, off) ->
              store_mem st w
                (operand st fr base + operand st fr off)
                (operand st fr src)
          | KeepLive _ -> ()
          | Push v -> st.arg_queue <- operand st fr v :: st.arg_queue
          | Call (dst, fname, nargs) -> (
              let vargs =
                let rec take n acc q =
                  if n = 0 then (acc, q)
                  else
                    match q with
                    | v :: rest -> take (n - 1) (v :: acc) rest
                    | [] -> raise (Fault "argument queue underflow")
                in
                let args, rest = take nargs [] st.arg_queue in
                st.arg_queue <- rest;
                args
              in
              match Hashtbl.find_opt st.funcs fname with
              | Some f ->
                  st.cycles <- st.cycles + st.cfg.vm_machine.Machdesc.md_cost_call;
                  push_frame st f vargs dst
              | None ->
                  let r = builtin st fname vargs in
                  Option.iter (fun d -> fr.fr_regs.(d) <- r) dst))
      | [] ->
          (* terminator *)
          st.instrs <- st.instrs + 1;
          st.cycles <- st.cycles + st.cfg.vm_machine.Machdesc.md_cost_branch;
          if st.tele.tl_on then begin
            Telemetry.Metrics.incr st.tele.tl_steps;
            Telemetry.Metrics.incr st.tele.tl_dispatch.(8)
          end;
          (match fr.fr_block.b_term with
          | Jmp l -> jump st fr l
          | Br (c, l1, l2) ->
              if operand st fr c <> 0 then jump st fr l1 else jump st fr l2
          | Ret v ->
              let rv = match v with Some o -> operand st fr o | None -> 0 in
              pop_frame st rv))

and jump st fr l =
  ignore st;
  match Hashtbl.find_opt fr.fr_blocks l with
  | Some b ->
      fr.fr_block <- b;
      fr.fr_pc <- b.b_instrs
  | None -> raise (Fault (Printf.sprintf "jump to unknown label L%d" l))

(** Run [main] to completion. *)
let run ?(config = default_config ()) ?(args = []) (p : program) : result =
  let st = load config p p.p_relocs in
  (* the allocator's emergency collections must see the VM's full root
     set (register files, live stack prefix), so route them through the
     collection wrapper rather than the heap's bare fallback *)
  st.heap.Gcheap.Heap.on_oom <-
    Some
      (fun () ->
        if st.tele.tl_on then Telemetry.Metrics.incr st.tele.tl_gc_emergency;
        (match st.tele.tl_rec with
        | Some fr ->
            Telemetry.Flight_recorder.record fr ~ts:st.instrs "gc.emergency" []
        | None -> ());
        collect ~trigger:"emergency" st);
  (match Hashtbl.find_opt st.funcs "main" with
  | Some f -> push_frame st f args None
  | None -> raise (Fault "no main function"));
  let tl = st.tele in
  let finally () =
    (* faulting runs still get a closed trace and a finished profile *)
    (match tl.tl_prof with
    | Some pr ->
        Telemetry.Heap_profiler.set_tick pr st.instrs;
        Telemetry.Heap_profiler.finish pr
    | None -> ());
    match tl.tl_trace with
    | Some tr -> Telemetry.Trace.end_span tr "vm.run"
    | None -> ()
  in
  (match tl.tl_trace with
  | Some tr ->
      Telemetry.Trace.begin_span tr
        ~args:[ ("machine", Telemetry.Json.Str config.vm_machine.Machdesc.md_name) ]
        "vm.run"
  | None -> ());
  Fun.protect ~finally @@ fun () ->
  let exit_code = ref 0 in
  (try
     while true do
       step st;
       if forced_gc_due st then forced_collect st;
       if st.instrs > config.vm_max_instrs then
         raise
           (Trap
              ( Step_limit,
                Printf.sprintf "instruction budget exceeded (%d steps)"
                  config.vm_max_instrs ))
     done
   with
  | Exit_program code -> exit_code := code
  | Fault msg as e when tl.tl_on ->
      Telemetry.Metrics.incr tl.tl_faults;
      (match tl.tl_rec with
      | Some fr ->
          Telemetry.Flight_recorder.record fr ~ts:st.instrs "vm.fault"
            [ ("msg", Telemetry.Json.Str msg) ]
      | None -> ());
      (match tl.tl_trace with
      | Some tr ->
          Telemetry.Trace.instant tr
            ~args:[ ("msg", Telemetry.Json.Str msg) ]
            "fault"
      | None -> ());
      raise e
  | Trap (kind, msg) as e when tl.tl_on ->
      Telemetry.Metrics.incr tl.tl_traps;
      (match tl.tl_rec with
      | Some fr ->
          Telemetry.Flight_recorder.record fr ~ts:st.instrs "vm.trap"
            [
              ("kind", Telemetry.Json.Str (trap_kind_name kind));
              ("msg", Telemetry.Json.Str msg);
            ]
      | None -> ());
      (match tl.tl_trace with
      | Some tr ->
          Telemetry.Trace.instant tr
            ~args:
              [
                ("kind", Telemetry.Json.Str (trap_kind_name kind));
                ("msg", Telemetry.Json.Str msg);
              ]
            "trap"
      | None -> ());
      raise e);
  if config.vm_final_collect then begin
    (* all frames are gone: only statics-reachable objects survive *)
    collect ~trigger:"final" st;
    st.gc_count <- st.gc_count - 1 (* not a program-visible collection *)
  end;
  (* sync barrier grays that accrued since the last increment *)
  if tl.tl_on then begin
    let hs = st.heap.Gcheap.Heap.stats in
    Telemetry.Metrics.add tl.tl_gc_inc_grays
      (hs.Gcheap.Heap.barrier_grays - st.inc_grays_seen);
    st.inc_grays_seen <- hs.Gcheap.Heap.barrier_grays
  end;
  let live_objects, live_bytes = Gcheap.Heap.live_summary st.heap in
  {
    r_exit = !exit_code;
    r_output = Buffer.contents st.out;
    r_instrs = st.instrs;
    r_cycles = st.cycles;
    r_gc_count = st.gc_count;
    r_heap = st.heap.Gcheap.Heap.stats;
    r_gc_points = List.rev st.gc_points;
    r_live_objects = live_objects;
    r_live_bytes = live_bytes;
    r_gc_max_pause_words = st.gc_max_pause_words;
    r_gc_total_pause_words = st.gc_total_pause_words;
    r_census = List.rev st.censuses;
  }
