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
  vm_heap : Gcheap.Heap.config;
      (** the collector's knobs, as given to {!Gcheap.Heap.create}, except
          one rule of the VM's: its minor threshold is always
          [Int.max 1024 (gc_threshold / 8)].  Cycle counts are identical in
          every collector mode: the store barrier charges nothing. *)
  vm_max_instrs : int;  (** step ceiling; exceeding it raises [Trap] *)
  vm_max_heap_bytes : int;
      (** arena footprint ceiling; exceeding it raises [Trap] *)
  vm_check_integrity : bool;
      (** run the heap sanitizer after every collection; violations raise
          {!Gcheap.Heap.Heap_corruption} *)
  vm_final_collect : bool;
      (** collect once after [main] returns, so the result's live-heap
          summary is comparable across schedules and builds *)
  vm_gc_point_sink : (int -> string -> unit) option;
      (** called for every fired injected collection with its safepoint
          index and a program-location description, also when the run
          later faults — what the schedule shrinker replays.  The
          description is formatted only when a sink is set *)
  vm_telemetry : Telemetry.Sink.t option;
      (** metrics / span tracing / heap profiling; nothing on the
          per-step path: step and dispatch counts are plain ints added
          to the metrics once per run *)
  vm_census : bool;
      (** sample a {!Gcheap.Census} after every completed collection
          (incremental cycles included); off by default — sampling walks
          every block, so it is an observation knob, not part of the
          request identity *)
}

(* The VM stack: one [Stack]-kind block, scanned as a root range up to
   the live prefix. *)
let stack_bytes = 256 * 1024

let default_config ?(machine = Machdesc.sparc10) () =
  {
    vm_machine = machine;
    vm_gc_schedule = Schedule.Auto;
    vm_gc_at_calls_only = false;
    vm_heap = Gcheap.Heap.default_config;
    vm_max_instrs = 400_000_000;
    vm_max_heap_bytes = 1 lsl 30;
    vm_check_integrity = false;
    vm_final_collect = false;
    vm_gc_point_sink = None;
    vm_telemetry = None;
    vm_census = false;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let alloc_builtin = function
  | "malloc" | "GC_malloc" | "GC_malloc_atomic" | "calloc" | "realloc" -> true
  | _ -> false

let dispatch_class_names =
  [| "mov"; "alu"; "rel"; "load"; "store"; "push"; "call"; "keep_live";
     "branch" |]

(* Indices into [dispatch_class_names]. *)
let cls_mov = 0
let cls_alu = 1
let cls_rel = 2
let cls_load = 3
let cls_store = 4
let cls_push = 5
let cls_call = 6
let cls_keep_live = 7
let cls_branch = 8

(* Counters that mirror a {!Gcheap.Heap.stats} field.  They are read from
   the heap once per run, so the registry and the heap cannot disagree. *)
let heap_counters : (string * (Gcheap.Heap.stats -> int)) list =
  Gcheap.Heap.
    [
      ("gc/collections", fun s -> s.collections);
      ("gc/minor/collections", fun s -> s.minor_collections);
      ("gc/emergency_collections", fun s -> s.emergency_collections);
      ("gc/injected_failures", fun s -> s.injected_failures);
      ("gc/promotions", fun s -> s.promoted);
      ("gc/cards_scanned", fun s -> s.cards_scanned);
      ("gc/words_scanned", fun s -> s.words_scanned);
      ("gc/objects_freed", fun s -> s.objects_freed);
      ("gc/bytes_freed", fun s -> s.bytes_freed);
      ("gc/incremental/increments", fun s -> s.increments);
      ("gc/incremental/final_marks", fun s -> s.final_marks);
      ("gc/incremental/budget_overruns", fun s -> s.budget_overruns);
      ("gc/incremental/barrier_grays", fun s -> s.barrier_grays);
    ]

type tele = {
  tl_on : bool;
  tl_sink : Telemetry.Sink.t option;  (** the event emitter's channels *)
  tl_prof : Telemetry.Heap_profiler.t option;
  tl_steps : Telemetry.Metrics.counter;
  tl_dispatch : Telemetry.Metrics.counter array;
      (** by dispatch class; both are added once per run, from the
          state's plain counts *)
  tl_heap : (Telemetry.Metrics.counter * (Gcheap.Heap.stats -> int)) list;
      (** [heap_counters], added once per run *)
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
  tl_gc_inc_pause_ns : Telemetry.Metrics.histogram;
      (** per-increment wall time, incremental mode only *)
  tl_heap_foot : Telemetry.Metrics.gauge;
  tl_alloc_bytes : Telemetry.Metrics.histogram;
  tl_faults : Telemetry.Metrics.counter;
  tl_traps : Telemetry.Metrics.counter;
}

let make_tele sink =
  let m = Telemetry.Metrics.scope (Telemetry.Sink.metrics sink) "vm" in
  let open Telemetry.Metrics in
  {
    tl_on = sink <> None;
    tl_sink = sink;
    tl_prof = Option.bind sink (fun s -> s.Telemetry.Sink.profiler);
    tl_steps = counter m "steps";
    tl_dispatch =
      Array.map (fun c -> counter m ("dispatch/" ^ c)) dispatch_class_names;
    tl_heap =
      List.map (fun (name, field) -> (counter m name, field)) heap_counters;
    tl_gc_pause = histogram m "gc/pause_ns";
    tl_gc_minor_pause = histogram m "gc/minor/pause_ns";
    tl_gc_major_pause = histogram m "gc/major/pause_ns";
    tl_gc_minor_scan = histogram m "gc/minor/pause_words";
    tl_gc_major_scan = histogram m "gc/major/pause_words";
    tl_gc_inc_pause = histogram m "gc/incremental/pause_words";
    tl_gc_inc_pause_ns = histogram m "gc/incremental/pause_ns";
    tl_heap_foot = gauge m "heap/footprint";
    tl_alloc_bytes = histogram m "alloc/bytes";
    tl_faults = counter m "faults";
    tl_traps = counter m "traps";
  }

(* ------------------------------------------------------------------ *)
(* Execution form                                                      *)
(* ------------------------------------------------------------------ *)

(* [load] compiles each function once.  Every IR instruction, and every
   block's terminator, becomes one closure over the state: its operands
   resolved to a captured register index or constant (a [Glob] already
   relocated into the statics region), its operator chosen, its cycle
   cost taken from the machine description, a callee resolved to a
   function index and a jump target to its block.  A step is then an
   array read and one call, and the closure charges its cycles and
   counts its dispatch class itself.  There is still one step per IR
   instruction and a safepoint after each. *)

type xfunc = {
  xf_name : string;
  xf_params : reg array;
  xf_nreg : int;
  xf_frame : int;  (** frame size rounded to 16 bytes *)
  xf_blocks : xblock array;  (** entry block first *)
}

and xblock = {
  xb_label : label;
  xb_src : instr array;  (** the IR instructions, for {!point_context} *)
  mutable xb_code : (state -> unit) array;
      (** one closure per instruction, then one for the terminator; set
          once, after every block of the function exists *)
}

and frame = {
  fr_func : xfunc;
  fr_regs : int array;
  fr_base : int;  (** frame base address in the VM stack region *)
  mutable fr_block : xblock;
  mutable fr_pc : int;
      (** where the frame resumes: saved when it calls, read back when
          the callee returns.  The innermost frame's position is the
          state's [blk] and [pc] *)
  fr_dst : reg;  (** caller register receiving our result; [-1]: none *)
}

and state = {
  cfg : config;
  heap : Gcheap.Heap.t;
  funcs : xfunc array;
  main : int;  (** index of [main] in [funcs]; [-1]: none *)
  statics_base : int;
  stack_base : int;
  mutable sp : int;  (** next free offset within the stack region *)
  mutable cur : frame;  (** the innermost frame, the head of [frames] *)
  mutable frames : frame list;
      (** innermost first: the register files the collector scans *)
  mutable depth : int;  (** call depth, for frames with empty frame areas *)
  mutable blk : xblock;  (** the innermost frame's block *)
  mutable code : (state -> unit) array;  (** [blk.xb_code] *)
  mutable pc : int;  (** index of the next closure in [code] *)
  mutable regs : int array;  (** the innermost frame's register file *)
  out : Buffer.t;
  mutable instrs : int;  (** steps executed: the [vm/steps] count *)
  mutable next_check : int;
      (** the next step count at which the run loop stops to check for
          an injected collection and the step ceiling *)
  mutable cycles : int;
  dispatch : int array;  (** steps by dispatch class *)
  mutable call_mark : int;
      (** non-terminator steps executed as of the last call; the last
          such step was a call exactly when none has run since *)
  mutable gc_count : int;
  mutable rand_state : int;
  mutable args : int array;  (** pushed arguments, oldest first *)
  mutable nargs : int;  (** arguments pushed and not yet taken *)
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
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* What every collector entry shares.  [gc_roots] ticks the heap
   profiler and returns the roots: the register files, read in place,
   innermost frame first, and the live prefix of the stack as a range,
   scanned as on a real machine.  [gc_pause] takes the pause (words of
   collector work) and the number of collections completed: the pause
   accounting, tracked unconditionally (plain int stores, no cycle
   impact) because it is the per-request GC share the service reports,
   and for a completed collection the census and the integrity check. *)
let gc_roots st =
  (match st.tele.tl_prof with
  | Some pr -> Telemetry.Heap_profiler.set_tick pr st.instrs
  | None -> ());
  List.map (fun fr -> fr.fr_regs) st.frames

let live_stack st = [ (st.stack_base, st.stack_base + st.sp) ]

let gc_pause st pause_words completed =
  st.gc_count <- st.gc_count + completed;
  st.gc_max_pause_words <- Int.max st.gc_max_pause_words pause_words;
  st.gc_total_pause_words <- st.gc_total_pause_words + pause_words;
  if completed > 0 then begin
    if st.cfg.vm_census then
      st.censuses <- Gcheap.Census.take st.heap :: st.censuses;
    if st.cfg.vm_check_integrity then Gcheap.Heap.assert_integrity st.heap
  end

(* The deterministic pause measure on the words-of-work clock: words the
   marker traced plus words the sweeper reclaimed since the counts
   [words0] and [bytes0] were read. *)
let pause_words hs words0 bytes0 =
  hs.Gcheap.Heap.words_scanned - words0
  + ((hs.Gcheap.Heap.bytes_freed - bytes0 + 7) / 8)

let collect ?(trigger = "auto") ?(generation = Gcheap.Heap.Major) st =
  let tl = st.tele in
  let minor = generation = Gcheap.Heap.Minor in
  let extra_roots = gc_roots st in
  let extra_ranges = live_stack st in
  let t0 = if tl.tl_on then Unix.gettimeofday () else 0. in
  let hs = st.heap.Gcheap.Heap.stats in
  let words0 = hs.Gcheap.Heap.words_scanned in
  let bytes0 = hs.Gcheap.Heap.bytes_freed in
  Telemetry.Sink.span tl.tl_sink ~ts:st.instrs "gc"
    ~args:(fun () ->
      [
        ("trigger", Telemetry.Json.Str trigger);
        ("gen", Telemetry.Json.Str (if minor then "minor" else "major"));
      ])
    ~end_args:(fun () ->
      [ ("pause_words", Telemetry.Json.Int (pause_words hs words0 bytes0)) ])
    (fun () ->
      ignore
        (Gcheap.Heap.collect ~generation ~extra_roots ~extra_ranges st.heap));
  let pause_words = pause_words hs words0 bytes0 in
  (if tl.tl_on then
     let open Telemetry in
     let pause_ns = Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9) in
     Metrics.observe tl.tl_gc_pause pause_ns;
     Metrics.observe
       (if minor then tl.tl_gc_minor_pause else tl.tl_gc_major_pause)
       pause_ns;
     Metrics.observe
       (if minor then tl.tl_gc_minor_scan else tl.tl_gc_major_scan)
       pause_words;
     let foot = Gcheap.Heap.footprint st.heap in
     Metrics.set tl.tl_heap_foot foot;
     match tl.tl_sink with
     | Some { Sink.trace = Some tr; _ } ->
         Trace.counter tr "heap"
           [
             ("footprint", foot);
             ( "live_bytes",
               hs.Gcheap.Heap.bytes_allocated - hs.Gcheap.Heap.bytes_freed );
           ]
     | _ -> ());
  gc_pause st pause_words 1

(** Where execution currently stands, for reporting a collection point:
    innermost function, block, and the instruction just executed. *)
let point_context st =
  match st.frames with
  | [] -> "program exit"
  | fr :: _ ->
      let b = st.blk in
      let where =
        if st.pc = 0 then "block entry"
        else Format.asprintf "after %a" Ir.Instr.pp_instr b.xb_src.(st.pc - 1)
      in
      Printf.sprintf "%s, L%d, %s" fr.fr_func.xf_name b.xb_label where

let forced_collect st =
  (match st.cfg.vm_gc_point_sink with
  | Some sink -> sink st.instrs (point_context st)
  | None -> ());
  collect ~trigger:"forced" st

(** One increment of the SATB marker, at an allocation GC point, over
    the same roots as {!collect}. *)
let incremental_step st =
  let tl = st.tele in
  let extra_roots = gc_roots st in
  let extra_ranges = live_stack st in
  let t0 = if tl.tl_on then Unix.gettimeofday () else 0. in
  let hs = st.heap.Gcheap.Heap.stats in
  let collections0 = hs.Gcheap.Heap.collections in
  (* each increment is a mutator pause of [spent] words of work *)
  let spent = Gcheap.Heap.step ~extra_roots ~extra_ranges st.heap in
  let pause_ns =
    if tl.tl_on then Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9) else 0
  in
  let completed = hs.Gcheap.Heap.collections - collections0 in
  Telemetry.Sink.instant tl.tl_sink ~ts:st.instrs "gc.step"
    ~args:(fun () ->
      [
        ("spent_words", Telemetry.Json.Int spent);
        ("completed", Telemetry.Json.Int completed);
      ]);
  if tl.tl_on then begin
    Telemetry.Metrics.observe tl.tl_gc_inc_pause spent;
    Telemetry.Metrics.observe tl.tl_gc_inc_pause_ns pause_ns;
    if completed > 0 then
      Telemetry.Metrics.set tl.tl_heap_foot (Gcheap.Heap.footprint st.heap)
  end;
  gc_pause st spent completed

let maybe_collect_for_alloc st =
  match st.cfg.vm_gc_schedule with
  | Schedule.At_allocs -> forced_collect st
  | _ ->
      if st.cfg.vm_heap.Gcheap.Heap.mode = Gcheap.Heap.Inc then begin
        if
          Gcheap.Heap.active st.heap
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

let[@inline] enter st (b : xblock) =
  st.blk <- b;
  st.code <- b.xb_code;
  st.pc <- 0

(* Enter [f] with the [n] arguments at [st.args.(first)] onward. *)
let push_frame st (f : xfunc) first n (dst : reg) =
  st.depth <- st.depth + 1;
  if
    st.sp + f.xf_frame > stack_bytes
    || st.depth > stack_bytes / 64
  then raise (Fault "stack overflow");
  let base = st.stack_base + st.sp in
  st.sp <- st.sp + f.xf_frame;
  let regs = Array.make f.xf_nreg 0 in
  regs.(fp) <- base;
  let arity () =
    raise (Fault (Printf.sprintf "arity mismatch calling %s" f.xf_name))
  in
  if n <> Array.length f.xf_params then arity ();
  (try
     for k = 0 to n - 1 do
       regs.(f.xf_params.(k)) <- st.args.(first + k)
     done
   with Invalid_argument _ -> arity ());
  let caller = st.cur in
  caller.fr_block <- st.blk;
  caller.fr_pc <- st.pc;
  let entry = f.xf_blocks.(0) in
  let fr =
    {
      fr_func = f;
      fr_regs = regs;
      fr_base = base;
      fr_block = entry;
      fr_pc = 0;
      fr_dst = dst;
    }
  in
  st.cur <- fr;
  st.frames <- fr :: st.frames;
  st.regs <- regs;
  enter st entry

let pop_frame st (ret : int) =
  match st.frames with
  | [] -> raise (Fault "return with no frame")
  | fr :: rest ->
      let frame_size = fr.fr_func.xf_frame in
      (* clear the dead frame so stale locals do not linger as roots *)
      if frame_size > 0 then
        Gcheap.Mem.fill st.heap.Gcheap.Heap.mem fr.fr_base frame_size '\000';
      st.sp <- st.sp - frame_size;
      st.depth <- st.depth - 1;
      st.frames <- rest;
      match rest with
      | [] -> raise (Exit_program ret)
      | caller :: _ ->
          st.cur <- caller;
          st.regs <- caller.fr_regs;
          st.blk <- caller.fr_block;
          st.code <- caller.fr_block.xb_code;
          st.pc <- caller.fr_pc;
          if fr.fr_dst >= 0 then caller.fr_regs.(fr.fr_dst) <- ret

(* ------------------------------------------------------------------ *)
(* Memory access with safety checking                                  *)
(* ------------------------------------------------------------------ *)

let access_fault what len addr =
  Fault
    (Printf.sprintf
       "GC safety violation: %s of %d byte(s) at %#x hits unallocated or \
        collected memory"
       what len addr)

(* The builtins' range check, and the profiled loads' and stores'.  The
   load and store instructions of an unprofiled run make one
   {!Gcheap.Heap.load} or {!Gcheap.Heap.store} call instead, whose
   [Invalid_access] the run loop turns into the same fault. *)
let check_access st addr len what =
  if not (Gcheap.Heap.valid_access st.heap addr len) then
    raise (access_fault what len addr);
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

let profiled_load st width addr =
  check_access st addr width "load";
  Gcheap.Heap.load st.heap ~width addr

let profiled_store st width addr v =
  check_access st addr width "store";
  Gcheap.Heap.store st.heap ~width addr v

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let cstring st addr =
  check_access st addr 1 "string read";
  Gcheap.Mem.load_cstring st.heap.Gcheap.Heap.mem addr

let charge st n = st.cycles <- st.cycles + n

let alloc ?kind ~site st n =
  maybe_collect_for_alloc st;
  let n = Int.max n 1 in
  let a = Gcheap.Heap.alloc ?kind st.heap n in
  if st.tele.tl_on then begin
    Telemetry.Metrics.observe st.tele.tl_alloc_bytes n;
    match st.tele.tl_prof with
    | Some pr ->
        Telemetry.Heap_profiler.set_tick pr st.instrs;
        Telemetry.Heap_profiler.on_alloc pr ~site ~addr:a ~bytes:n
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
        (* an [l] length modifier changes nothing: every integer is a
           word, so [%ld] is [%d] and [%lx] is [%x] *)
        let long = fmt.[i + 1] = 'l' && i + 2 < n in
        let len = if long then 3 else 2 in
        (match (long, fmt.[i + len - 1]) with
        | _, ('d' | 'i' | 'u') ->
            Buffer.add_string buf (string_of_int (next ()))
        | _, 'x' -> Buffer.add_string buf (Printf.sprintf "%x" (next ()))
        | false, 'c' -> Buffer.add_char buf (Char.chr (next () land 0xff))
        | false, 's' -> Buffer.add_string buf (cstring st (next ()))
        | false, 'p' -> Buffer.add_string buf (Printf.sprintf "0x%x" (next ()))
        | false, '%' -> Buffer.add_char buf '%'
        | _ ->
            raise
              (Fault
                 (Printf.sprintf "printf: unsupported %%%s"
                    (String.sub fmt (i + 1) (len - 1)))));
        loop (i + len)
      end
      else begin
        Buffer.add_char buf fmt.[i];
        loop (i + 1)
      end
  in
  loop 0;
  Buffer.add_buffer st.out buf;
  Buffer.length buf

(* [site]: the heap-profiler id of this call, for the allocators *)
let builtin st ~site name (args : int list) : int =
  let m = st.cfg.vm_machine in
  charge st m.Machdesc.md_cost_call;
  match (name, args) with
  | ("malloc" | "GC_malloc"), [ n ] ->
      charge st 40;
      alloc ~site st n
  | "GC_malloc_atomic", [ n ] ->
      charge st 40;
      alloc ~kind:Gcheap.Block.Atomic ~site st n
  | "calloc", [ a; b ] ->
      charge st 45;
      alloc ~site st (a * b)
  | "realloc", [ p; n ] ->
      charge st 50;
      if p = 0 then alloc ~site st n
      else begin
        let fresh = alloc ~site st n in
        (match Gcheap.Heap.extent_of st.heap p with
        | Some (base, size) ->
            let old_len = size - (p - base) in
            let len = Int.min n old_len in
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
      charge st (2 * Int.min (String.length av) (String.length bv));
      String.compare av bv
  | "strncmp", [ a; b; n ] ->
      let take s = if String.length s > n then String.sub s 0 n else s in
      let av = take (cstring st a) and bv = take (cstring st b) in
      charge st (2 * n);
      String.compare av bv
  | "strchr", [ s; c ] -> (
      let v = cstring st s in
      charge st (2 * String.length v);
      match String.index_opt v (Char.chr (c land 0xff)) with
      | Some i -> s + i
      | None -> 0)
  | ("memcpy" | "memmove"), [ d; s; n ] ->
      charge st (Int.max 4 (n / 4));
      if n > 0 then begin
        check_access st d n "memcpy dst";
        check_access st s n "memcpy src";
        Gcheap.Heap.note_store st.heap d n;
        Gcheap.Mem.blit st.heap.Gcheap.Heap.mem ~src:s ~dst:d n
      end;
      d
  | "memset", [ d; c; n ] ->
      charge st (Int.max 4 (n / 4));
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
(* Compiling to closures                                               *)
(* ------------------------------------------------------------------ *)

(* A closure's bookkeeping: its cycles, then its dispatch class. *)
let[@inline] tick st cls cost =
  st.cycles <- st.cycles + cost;
  Array.unsafe_set st.dispatch cls (Array.unsafe_get st.dispatch cls + 1)

(* Register access of the specialised closures: [lower_func] gives them
   only register indices inside the frame's register file. *)
let[@inline] ( .!() ) (r : int array) i = Array.unsafe_get r i
let[@inline] ( .!()<- ) (r : int array) i (v : int) = Array.unsafe_set r i v

let[@inline] div a b = if b = 0 then raise (Fault "division by zero") else a / b
let[@inline] rem a b = if b = 0 then raise (Fault "division by zero") else a mod b

(* The operators as functions, for the generic closures. *)
let binop_fn : binop -> int -> int -> int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> div
  | Mod -> rem
  | Shl -> fun a b -> a lsl (b land 63)
  | Shr -> fun a b -> a asr (b land 63)
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )

let relop_fn : relop -> int -> int -> bool = function
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b
  | Lt -> fun a b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b

let commutes = function Add | Mul | And | Or | Xor -> true | _ -> false

(* [k op r] is [r (mirror op) k] *)
let mirror = function
  | (Eq | Ne) as op -> op
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* Each constructor below returns the closure of one instruction shape:
   [_rr] reads two registers, [_rk] a register and a constant, [_any]
   takes its operands as reader functions with checked register access
   (the rare shapes, registers outside the frame, profiled accesses). *)

let[@inline] mov_r cost d s st =
  tick st cls_mov cost;
  let r = st.regs in
  r.!(d) <- r.!(s)

let[@inline] mov_k cost d k st =
  tick st cls_mov cost;
  st.regs.!(d) <- k

let[@inline] mov_any cost d rs st =
  tick st cls_mov cost;
  let r = st.regs in
  r.(d) <- rs r

let alu_rr cost op d a b : state -> unit =
  match op with
  | Add -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) + r.!(b)
  | Sub -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) - r.!(b)
  | Mul -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) * r.!(b)
  | Div -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- div r.!(a) r.!(b)
  | Mod -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- rem r.!(a) r.!(b)
  | Shl -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lsl (r.!(b) land 63)
  | Shr -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) asr (r.!(b) land 63)
  | And -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) land r.!(b)
  | Or -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lor r.!(b)
  | Xor -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lxor r.!(b)

let alu_rk cost op d a k : state -> unit =
  match op with
  | Add -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) + k
  | Sub -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) - k
  | Mul -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) * k
  | Div -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- div r.!(a) k
  | Mod -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- rem r.!(a) k
  | Shl -> let k = k land 63 in fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lsl k
  | Shr -> let k = k land 63 in fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) asr k
  | And -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) land k
  | Or -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lor k
  | Xor -> fun st -> tick st cls_alu cost; let r = st.regs in r.!(d) <- r.!(a) lxor k

let alu_any cost op d ra rb =
  let f = binop_fn op in
  fun st ->
    tick st cls_alu cost;
    let r = st.regs in
    r.(d) <- f (ra r) (rb r)

let rel_rr cost op d a b : state -> unit =
  match op with
  | Eq -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) = r.!(b))
  | Ne -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) <> r.!(b))
  | Lt -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) < r.!(b))
  | Le -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) <= r.!(b))
  | Gt -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) > r.!(b))
  | Ge -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) >= r.!(b))

let rel_rk cost op d a (k : int) : state -> unit =
  match op with
  | Eq -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) = k)
  | Ne -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) <> k)
  | Lt -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) < k)
  | Le -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) <= k)
  | Gt -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) > k)
  | Ge -> fun st -> tick st cls_rel cost; let r = st.regs in r.!(d) <- Bool.to_int (r.!(a) >= k)

let rel_any cost op d ra rb =
  let f = relop_fn op in
  fun st ->
    tick st cls_rel cost;
    let r = st.regs in
    r.(d) <- Bool.to_int (f (ra r) (rb r))

(* Loads and stores make one checked heap access each; its
   [Invalid_access] becomes a fault in the run loop. *)

let[@inline] load_rr cost w d a b st =
  tick st cls_load cost;
  let r = st.regs in
  r.!(d) <- Gcheap.Heap.load st.heap ~width:w (r.!(a) + r.!(b))

let[@inline] load_rk cost w d a k st =
  tick st cls_load cost;
  let r = st.regs in
  r.!(d) <- Gcheap.Heap.load st.heap ~width:w (r.!(a) + k)

let load_any ~profile cost w d ra rb =
  let access =
    if profile then profiled_load
    else fun st width addr -> Gcheap.Heap.load st.heap ~width addr
  in
  fun st ->
    tick st cls_load cost;
    let r = st.regs in
    r.(d) <- access st w (ra r + rb r)

let[@inline] store_rrr cost w v a b st =
  tick st cls_store cost;
  let r = st.regs in
  Gcheap.Heap.store st.heap ~width:w (r.!(a) + r.!(b)) r.!(v)

let[@inline] store_rrk cost w v a k st =
  tick st cls_store cost;
  let r = st.regs in
  Gcheap.Heap.store st.heap ~width:w (r.!(a) + k) r.!(v)

let[@inline] store_krr cost w x a b st =
  tick st cls_store cost;
  let r = st.regs in
  Gcheap.Heap.store st.heap ~width:w (r.!(a) + r.!(b)) x

let[@inline] store_krk cost w x a k st =
  tick st cls_store cost;
  Gcheap.Heap.store st.heap ~width:w (st.regs.!(a) + k) x

let store_any ~profile cost w rv ra rb =
  let access =
    if profile then profiled_store
    else fun st width addr v -> Gcheap.Heap.store st.heap ~width addr v
  in
  fun st ->
    tick st cls_store cost;
    let r = st.regs in
    access st w (ra r + rb r) (rv r)

let push_arg st v =
  if st.nargs = Array.length st.args then begin
    let grown = Array.make (2 * st.nargs) 0 in
    Array.blit st.args 0 grown 0 st.nargs;
    st.args <- grown
  end;
  st.args.(st.nargs) <- v;
  st.nargs <- st.nargs + 1

let[@inline] push cost rv st =
  tick st cls_push cost;
  push_arg st (rv st.regs)

let[@inline] push_r cost s st =
  tick st cls_push cost;
  push_arg st st.regs.!(s)

let keep_live st = tick st cls_keep_live 0

let rec arg_list st first k acc =
  if k < first then acc else arg_list st first (k - 1) (st.args.(k) :: acc)

(* A call step: counted, remembered as the last call for the
   calls-only schedules, and its [n] arguments taken off the queue; the
   index of the first one is returned. *)
let call_step st n =
  tick st cls_call 0;
  st.call_mark <- st.instrs - st.dispatch.(cls_branch);
  if n < 0 || n > st.nargs then raise (Fault "argument queue underflow");
  let first = st.nargs - n in
  st.nargs <- first;
  first

let[@inline] call_func call_cost k n dst st =
  let first = call_step st n in
  st.cycles <- st.cycles + call_cost;
  push_frame st st.funcs.(k) first n dst

let[@inline] call_builtin ~site name n dst st =
  let regs = st.regs in
  let first = call_step st n in
  let r = builtin st ~site name (arg_list st first (first + n - 1) []) in
  if dst >= 0 then regs.(dst) <- r

(* Terminators.  A jump target is a block of the function; an unknown
   label faults only when the jump is taken. *)

let unknown_label l =
  Fault (Printf.sprintf "jump to unknown label L%d" l)

let[@inline] bad_jump cost l st =
  tick st cls_branch cost;
  raise (unknown_label l)

let[@inline] jump cost b st =
  tick st cls_branch cost;
  enter st b

let[@inline] branch_r cost c b1 b2 st =
  tick st cls_branch cost;
  enter st (if st.regs.!(c) <> 0 then b1 else b2)

let[@inline] branch_any cost rc (g1 : state -> unit) g2 st =
  tick st cls_branch cost;
  if rc st.regs <> 0 then g1 st else g2 st

let[@inline] ret_r cost v st =
  tick st cls_branch cost;
  pop_frame st st.regs.!(v)

let[@inline] ret cost rv st =
  tick st cls_branch cost;
  pop_frame st (rv st.regs)

(* Site ids are [fn:callee#k] with [k] the ordinal of the call among
   same-callee alloc calls of the function, counted in static
   block-label order.  Annotation passes insert or remove [KeepLive]
   markers but never alloc calls, so ids join across
   [--analysis none|flow] builds of one program.  Keyed by block label
   and position in the block. *)
let site_ids (f : func) =
  let tab = Hashtbl.create 8 and ord = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iteri
        (fun k i ->
          match i with
          | Call (_, callee, _) when alloc_builtin callee ->
              let n = Option.value ~default:0 (Hashtbl.find_opt ord callee) in
              Hashtbl.replace ord callee (n + 1);
              Hashtbl.replace tab (b.b_label, k)
                (Printf.sprintf "%s:%s#%d" f.fn_name callee n)
          | _ -> ())
        b.b_instrs)
    (List.sort (fun a b -> Int.compare a.b_label b.b_label) f.fn_blocks);
  tab

let lower_func (m : Machdesc.t) ~statics_base ~func_index ~profile (f : func)
    =
  let nreg = Int.max f.fn_nreg 1 in
  let ok r = r >= 0 && r < nreg in
  (* a [Glob] is a constant: its address in the statics region *)
  let opd = function Glob off -> Imm (statics_base + off) | o -> o in
  let read : operand -> int array -> int = function
    | Reg r -> fun regs -> regs.(r)
    | Imm n -> fun _ -> n
    | Glob off ->
        let n = statics_base + off in
        fun _ -> n
  in
  let blocks =
    Array.of_list
      (List.map
         (fun b ->
           { xb_label = b.b_label; xb_src = Array.of_list b.b_instrs;
             xb_code = [||] })
         f.fn_blocks)
  in
  let index = Hashtbl.create 8 in
  Array.iter (fun xb -> Hashtbl.replace index xb.xb_label xb) blocks;
  let goto l : state -> unit =
    match Hashtbl.find_opt index l with
    | Some b -> fun st -> enter st b
    | None -> fun _ -> raise (unknown_label l)
  in
  let sites = if profile then site_ids f else Hashtbl.create 1 in
  let cost = function
    | Mov _ | Opaque _ | Push _ -> m.Machdesc.md_cost_mov
    | Bin (op, d, a, _) ->
        let base =
          match op with
          | Mul -> m.Machdesc.md_cost_mul
          | Div | Mod -> m.Machdesc.md_cost_div
          | _ -> m.Machdesc.md_cost_alu
        in
        (* two-operand machines need a move when dst <> first source *)
        if m.Machdesc.md_two_operand && a <> Reg d then
          base + m.Machdesc.md_cost_mov
        else base
    | Rel _ -> m.Machdesc.md_cost_alu + 1
    | Load _ -> m.Machdesc.md_cost_load
    | Store _ -> m.Machdesc.md_cost_store
    | Call _ -> 0 (* overhead charged at dispatch, body separately *)
    | KeepLive _ -> 0
  in
  let instr label k i : state -> unit =
    let c = cost i in
    match i with
    | Mov (d, s) | Opaque (d, s) -> (
        match opd s with
        | Reg s when ok d && ok s -> mov_r c d s
        | Imm n when ok d -> mov_k c d n
        | s -> mov_any c d (read s))
    | Bin (op, d, a, b) -> (
        match (opd a, opd b) with
        | Reg a, Reg b when ok d && ok a && ok b -> alu_rr c op d a b
        | Reg a, Imm k when ok d && ok a -> alu_rk c op d a k
        | Imm k, Reg a when ok d && ok a && commutes op -> alu_rk c op d a k
        | a, b -> alu_any c op d (read a) (read b))
    | Rel (op, d, a, b) -> (
        match (opd a, opd b) with
        | Reg a, Reg b when ok d && ok a && ok b -> rel_rr c op d a b
        | Reg a, Imm k when ok d && ok a -> rel_rk c op d a k
        | Imm k, Reg a when ok d && ok a -> rel_rk c (mirror op) d a k
        | a, b -> rel_any c op d (read a) (read b))
    | Load (w, d, a, b) -> (
        let w = bytes_of_width w in
        match (opd a, opd b) with
        | _ when profile -> load_any ~profile c w d (read a) (read b)
        | Reg a, Reg b when ok d && ok a && ok b -> load_rr c w d a b
        | (Reg a, Imm k | Imm k, Reg a) when ok d && ok a -> load_rk c w d a k
        | a, b -> load_any ~profile c w d (read a) (read b))
    | Store (w, v, a, b) -> (
        let w = bytes_of_width w in
        match (opd v, opd a, opd b) with
        | _ when profile -> store_any ~profile c w (read v) (read a) (read b)
        | Reg v, Reg a, Reg b when ok v && ok a && ok b -> store_rrr c w v a b
        | (Reg v, Reg a, Imm k | Reg v, Imm k, Reg a) when ok v && ok a ->
            store_rrk c w v a k
        | Imm x, Reg a, Reg b when ok a && ok b -> store_krr c w x a b
        | (Imm x, Reg a, Imm k | Imm x, Imm k, Reg a) when ok a ->
            store_krk c w x a k
        | v, a, b -> store_any ~profile c w (read v) (read a) (read b))
    | Push v -> (
        match opd v with
        | Reg s when ok s -> push_r c s
        | v -> push c (read v))
    | Call (dst, name, nargs) -> (
        let dst = Option.value ~default:(-1) dst in
        match func_index name with
        | -1 ->
            let site =
              Option.value ~default:"?" (Hashtbl.find_opt sites (label, k))
            in
            call_builtin ~site name nargs dst
        | callee -> call_func m.Machdesc.md_cost_call callee nargs dst)
    | KeepLive _ -> keep_live
  in
  let term = function
    | Jmp l -> (
        match Hashtbl.find_opt index l with
        | Some b -> jump m.Machdesc.md_cost_branch b
        | None -> bad_jump m.Machdesc.md_cost_branch l)
    | Br (cond, l1, l2) -> (
        match (opd cond, Hashtbl.find_opt index l1, Hashtbl.find_opt index l2) with
        | Reg r, Some b1, Some b2 when ok r ->
            branch_r m.Machdesc.md_cost_branch r b1 b2
        | _ -> branch_any m.Machdesc.md_cost_branch (read cond) (goto l1) (goto l2))
    | Ret (Some (Reg r)) when ok r -> ret_r m.Machdesc.md_cost_branch r
    | Ret v ->
        ret m.Machdesc.md_cost_branch (read (Option.value ~default:(Imm 0) v))
  in
  List.iteri
    (fun bi b ->
      let xb = blocks.(bi) in
      let n = Array.length xb.xb_src in
      xb.xb_code <-
        Array.init (n + 1) (fun k ->
            if k < n then instr b.b_label k xb.xb_src.(k) else term b.b_term))
    f.fn_blocks;
  {
    xf_name = f.fn_name;
    xf_params = Array.of_list f.fn_params;
    xf_nreg = nreg;
    xf_frame = (f.fn_frame + 15) / 16 * 16;
    xf_blocks = blocks;
  }

(* Lower every function; a name defined twice resolves to its last
   definition.  Returns the functions and the name lookup. *)
let lower_program m ~statics_base ~profile (p : program) =
  let names = Hashtbl.create 16 in
  List.iteri (fun k f -> Hashtbl.replace names f.fn_name k) p.p_funcs;
  let func_index name =
    Option.value ~default:(-1) (Hashtbl.find_opt names name)
  in
  ( Array.of_list
      (List.map (lower_func m ~statics_base ~func_index ~profile) p.p_funcs),
    func_index )

(* The frame of no function, current before [main] is entered. *)
let no_frame () =
  let b =
    { xb_label = 0; xb_src = [||];
      xb_code = [| (fun _ -> raise (Fault "return with no frame")) |] }
  in
  {
    fr_func =
      { xf_name = "?"; xf_params = [||]; xf_nreg = 1; xf_frame = 0;
        xf_blocks = [| b |] };
    fr_regs = [| 0 |];
    fr_base = 0;
    fr_block = b;
    fr_pc = 0;
    fr_dst = -1;
  }


(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* The run state over a fresh [heap]: the statics and the stack block
   allocated, the program lowered. *)
let init_state (cfg : config) (p : program) statics_relocs heap : state =
  let statics_base =
    Gcheap.Heap.alloc ~kind:Gcheap.Block.Uncollectable heap
      (Int.max 8 (Bytes.length p.p_statics))
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
    Gcheap.Heap.alloc ~kind:Gcheap.Block.Stack heap stack_bytes
  in
  let tele = make_tele cfg.vm_telemetry in
  let funcs, func_index =
    lower_program cfg.vm_machine ~statics_base
      ~profile:(Option.is_some tele.tl_prof) p
  in
  (match tele.tl_prof with
  | Some pr ->
      heap.Gcheap.Heap.on_free <-
        Some (fun ~addr ~bytes:_ -> Telemetry.Heap_profiler.on_free pr ~addr)
  | None -> ());
  let none = no_frame () in
  {
    cfg;
    heap;
    funcs;
    main = func_index "main";
    statics_base;
    stack_base;
    sp = 0;
    cur = none;
    frames = [];
    depth = 0;
    blk = none.fr_block;
    code = none.fr_block.xb_code;
    pc = 0;
    regs = none.fr_regs;
    out = Buffer.create 256;
    instrs = 0;
    next_check = 0;
    cycles = 0;
    dispatch = Array.make (Array.length dispatch_class_names) 0;
    call_mark = -1;
    gc_count = 0;
    rand_state = 42;
    args = Array.make 16 0;
    nargs = 0;
    gc_max_pause_words = 0;
    gc_total_pause_words = 0;
    censuses = [];
    tele;
  }

let load (cfg : config) (p : program) (statics_relocs : (int * int) list) :
    state =
  let h = cfg.vm_heap in
  let heap =
    Gcheap.Heap.create
      ~config:
        {
          h with
          Gcheap.Heap.minor_threshold =
            Int.max 1024 (h.Gcheap.Heap.gc_threshold / 8);
        }
      ()
  in
  (* a load that raises (a heap limit below the stack block) hands the
     arena back at once, as [run] does for a run: nothing points into it *)
  match init_state cfg p statics_relocs heap with
  | st -> st
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Gcheap.Mem.release heap.Gcheap.Heap.mem;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Run steps up to step [st.next_check].  A step is an array read and
   one closure call.  [pc] stays within the block's closures: only the
   terminator, the last, leaves the block, and it enters another block
   at 0, resumes a caller after its call, or raises. *)
let step st =
  let stop = st.next_check in
  while st.instrs < stop do
    let pc = st.pc in
    st.pc <- pc + 1;
    st.instrs <- st.instrs + 1;
    (Array.unsafe_get st.code pc) st
  done

(* Was the last step other than a terminator a call?  The paper's
   optimization (4) assumes collections happen only there. *)
let at_call st = st.instrs - st.dispatch.(cls_branch) = st.call_mark

(* Does the schedule inject a collection at safepoint [i]? *)
let scheduled st i =
  match st.cfg.vm_gc_schedule with
  | Schedule.Every n -> n > 0 && i mod n = 0
  | Schedule.At pts -> Schedule.points_mem pts i
  | Schedule.Auto | Schedule.At_allocs -> false

(* The next safepoint after the current one that needs a look: the next
   scheduled point, or the step past the ceiling, whichever comes
   first. *)
let next_check st =
  let i = st.instrs in
  let point =
    match st.cfg.vm_gc_schedule with
    | Schedule.Every n when n > 0 -> ((i / n) + 1) * n
    | Schedule.At pts -> (
        match Schedule.points_next pts i with -1 -> max_int | k -> k)
    | Schedule.Every _ | Schedule.Auto | Schedule.At_allocs -> max_int
  in
  let limit = st.cfg.vm_max_instrs in
  Int.max (i + 1)
    (Int.min point (if limit < max_int then limit + 1 else max_int))

(* The safepoint after step [st.instrs], reached at [st.next_check]. *)
let check st =
  if
    scheduled st st.instrs
    && ((not st.cfg.vm_gc_at_calls_only) || at_call st)
  then forced_collect st;
  if st.instrs > st.cfg.vm_max_instrs then
    raise
      (Trap
         ( Step_limit,
           Printf.sprintf "instruction budget exceeded (%d steps)"
             st.cfg.vm_max_instrs ));
  st.next_check <- next_check st

(** Run [main] to completion. *)
let run ?(config = default_config ()) ?(args = []) (p : program) : result =
  let st = load config p p.p_relocs in
  (* however the run ends, its arena goes back to this domain's spare:
     nothing [run] returns or raises points into it *)
  Fun.protect ~finally:(fun () -> Gcheap.Mem.release st.heap.Gcheap.Heap.mem)
  @@ fun () ->
  let tl = st.tele in
  (* the allocator's emergency collections must see the VM's full root
     set (register files, live stack prefix), so route them through the
     collection wrapper rather than the heap's bare fallback *)
  st.heap.Gcheap.Heap.on_oom <-
    Some
      (fun () ->
        Telemetry.Sink.instant tl.tl_sink ~ts:st.instrs "gc.emergency";
        collect ~trigger:"emergency" st);
  if st.main < 0 then raise (Fault "no main function");
  List.iter (push_arg st) args;
  st.nargs <- 0;
  push_frame st st.funcs.(st.main) 0 (List.length args) (-1);
  let finally () =
    (* faulting, trapping and exhausted runs still count their steps
       and the heap's collector work, and get a finished profile *)
    Telemetry.Metrics.add tl.tl_steps st.instrs;
    Array.iteri
      (fun k c -> Telemetry.Metrics.add c st.dispatch.(k))
      tl.tl_dispatch;
    List.iter
      (fun (c, field) ->
        Telemetry.Metrics.add c (field st.heap.Gcheap.Heap.stats))
      tl.tl_heap;
    match tl.tl_prof with
    | Some pr ->
        Telemetry.Heap_profiler.set_tick pr st.instrs;
        Telemetry.Heap_profiler.finish pr
    | None -> ()
  in
  Telemetry.Sink.span tl.tl_sink "vm.run"
    ~args:(fun () ->
      [ ("machine", Telemetry.Json.Str config.vm_machine.Machdesc.md_name) ])
  @@ fun () ->
  Fun.protect ~finally @@ fun () ->
  let exit_code = ref 0 in
  st.next_check <- next_check st;
  (try
     try
       while true do
         step st;
         check st
       done
     with Gcheap.Heap.Invalid_access { store; addr; len } ->
       raise (access_fault (if store then "store" else "load") len addr)
   with
  | Exit_program code -> exit_code := code
  | Fault msg as e when tl.tl_on ->
      Telemetry.Metrics.incr tl.tl_faults;
      Telemetry.Sink.instant tl.tl_sink ~ts:st.instrs "vm.fault"
        ~args:(fun () -> [ ("msg", Telemetry.Json.Str msg) ]);
      raise e
  | Trap (kind, msg) as e when tl.tl_on ->
      Telemetry.Metrics.incr tl.tl_traps;
      Telemetry.Sink.instant tl.tl_sink ~ts:st.instrs "vm.trap"
        ~args:(fun () ->
          [
            ("kind", Telemetry.Json.Str (trap_kind_name kind));
            ("msg", Telemetry.Json.Str msg);
          ]);
      raise e);
  if config.vm_final_collect then begin
    (* all frames are gone: only statics-reachable objects survive *)
    collect ~trigger:"final" st;
    st.gc_count <- st.gc_count - 1 (* not a program-visible collection *)
  end;
  let live_objects, live_bytes = Gcheap.Heap.live_summary st.heap in
  {
    r_exit = !exit_code;
    r_output = Buffer.contents st.out;
    r_instrs = st.instrs;
    r_cycles = st.cycles;
    r_gc_count = st.gc_count;
    r_heap = st.heap.Gcheap.Heap.stats;
    r_live_objects = live_objects;
    r_live_bytes = live_bytes;
    r_gc_max_pause_words = st.gc_max_pause_words;
    r_gc_total_pause_words = st.gc_total_pause_words;
    r_census = List.rev st.censuses;
  }
