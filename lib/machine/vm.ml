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
          [max 1024 (gc_threshold / 8)].  Cycle counts are identical in
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

(* [load] lowers each function once into arrays: blocks addressed by
   dense index, terminators resolved to block indices, operands decoded
   (a [Glob] is already relocated into the statics region), callees
   resolved to a function index, and each instruction's cycle cost taken
   from the machine description.  A step is then an array read and one
   match. *)

type xop = R of reg | K of int  (** register, or a resolved constant *)

type call = {
  c_dst : reg;  (** [-1]: the result is discarded *)
  c_name : string;
  c_nargs : int;
  c_func : int;  (** index into [st.funcs]; [-1]: a builtin *)
  c_site : string;
      (** heap-profiler site id [fn:callee#k] of an allocation call, when
          profiling; otherwise ["?"] *)
}

type xinstr =
  | XMov of reg * xop  (** [Mov] and [Opaque] *)
  | XBin of binop * reg * xop * xop
  | XRel of relop * reg * xop * xop
  | XLoad of int * reg * xop * xop  (** width in bytes *)
  | XStore of int * xop * xop * xop
  | XPush of xop
  | XCall of call
  | XKeepLive

(* A jump target is a block index; an unknown label [l] is kept as
   [-1 - l] and faults only when the jump is taken. *)
type xterm = XJmp of int | XBr of xop * int * int | XRet of xop

type xblock = {
  xb_label : label;
  xb_src : instr array;  (** the IR instructions, for {!point_context} *)
  xb_code : xinstr array;
  xb_cost : int array;  (** cycles of each instruction *)
  xb_term : xterm;
}

type xfunc = {
  xf_name : string;
  xf_params : reg array;
  xf_nreg : int;
  xf_frame : int;  (** frame size rounded to 16 bytes *)
  xf_blocks : xblock array;  (** entry block first *)
}

type frame = {
  fr_func : xfunc;
  fr_regs : int array;
  fr_base : int;  (** frame base address in the VM stack region *)
  mutable fr_block : xblock;
  mutable fr_pc : int;  (** index of the next instruction in [fr_block] *)
  fr_dst : reg;  (** caller register receiving our result; [-1]: none *)
}

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
    (List.sort (fun a b -> compare a.b_label b.b_label) f.fn_blocks);
  tab

let lower_func (m : Machdesc.t) ~statics_base ~func_index ~profile (f : func)
    =
  let op = function
    | Reg r -> R r
    | Imm n -> K n
    | Glob off -> K (statics_base + off)
  in
  let index = Hashtbl.create 8 in
  List.iteri (fun k b -> Hashtbl.replace index b.b_label k) f.fn_blocks;
  let target l =
    match Hashtbl.find_opt index l with Some k -> k | None -> -1 - l
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
  let lower_block b =
    let src = Array.of_list b.b_instrs in
    let code =
      Array.mapi
        (fun k -> function
          | Mov (d, s) | Opaque (d, s) -> XMov (d, op s)
          | Bin (o, d, a, c) -> XBin (o, d, op a, op c)
          | Rel (o, d, a, c) -> XRel (o, d, op a, op c)
          | Load (w, d, a, c) -> XLoad (bytes_of_width w, d, op a, op c)
          | Store (w, v, a, c) -> XStore (bytes_of_width w, op v, op a, op c)
          | Push v -> XPush (op v)
          | Call (dst, name, nargs) ->
              XCall
                {
                  c_dst = Option.value ~default:(-1) dst;
                  c_name = name;
                  c_nargs = nargs;
                  c_func = func_index name;
                  c_site =
                    Option.value ~default:"?"
                      (Hashtbl.find_opt sites (b.b_label, k));
                }
          | KeepLive _ -> XKeepLive)
        src
    in
    {
      xb_label = b.b_label;
      xb_src = src;
      xb_code = code;
      xb_cost = Array.map cost src;
      xb_term =
        (match b.b_term with
        | Jmp l -> XJmp (target l)
        | Br (c, l1, l2) -> XBr (op c, target l1, target l2)
        | Ret v -> XRet (match v with Some o -> op o | None -> K 0));
    }
  in
  {
    xf_name = f.fn_name;
    xf_params = Array.of_list f.fn_params;
    xf_nreg = max f.fn_nreg 1;
    xf_frame = (f.fn_frame + 15) / 16 * 16;
    xf_blocks = Array.of_list (List.map lower_block f.fn_blocks);
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

(* The frame of no function, current before [main] is entered: its one
   block returns, which faults with no frame to return from. *)
let no_frame =
  let b =
    { xb_label = 0; xb_src = [||]; xb_code = [||]; xb_cost = [||];
      xb_term = XRet (K 0) }
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

type state = {
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
  out : Buffer.t;
  mutable instrs : int;  (** steps executed: the [vm/steps] count *)
  mutable cycles : int;
  dispatch : int array;  (** steps by dispatch class *)
  mutable gc_count : int;
  mutable rand_state : int;
  mutable args : int array;  (** pushed arguments, oldest first *)
  mutable nargs : int;  (** arguments pushed and not yet taken *)
  mutable at_call : bool;  (** the last executed instruction was a call *)
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
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let load (cfg : config) (p : program) (statics_relocs : (int * int) list) :
    state =
  let h = cfg.vm_heap in
  let heap =
    Gcheap.Heap.create
      ~config:
        {
          h with
          Gcheap.Heap.minor_threshold =
            max 1024 (h.Gcheap.Heap.gc_threshold / 8);
        }
      ()
  in
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
  {
    cfg;
    heap;
    funcs;
    main = func_index "main";
    statics_base;
    stack_base;
    sp = 0;
    cur = no_frame;
    frames = [];
    depth = 0;
    out = Buffer.create 256;
    instrs = 0;
    cycles = 0;
    dispatch = Array.make (Array.length dispatch_class_names) 0;
    gc_count = 0;
    rand_state = 42;
    args = Array.make 16 0;
    nargs = 0;
    at_call = false;
    gc_max_pause_words = 0;
    gc_total_pause_words = 0;
    censuses = [];
    tele;
  }

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
  st.gc_max_pause_words <- max st.gc_max_pause_words pause_words;
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
      let b = fr.fr_block in
      let where =
        if fr.fr_pc = 0 then "block entry"
        else
          Format.asprintf "after %a" Ir.Instr.pp_instr b.xb_src.(fr.fr_pc - 1)
      in
      Printf.sprintf "%s, L%d, %s" fr.fr_func.xf_name b.xb_label where

let forced_collect st =
  (match st.cfg.vm_gc_point_sink with
  | Some sink -> sink st.instrs (point_context st)
  | None -> ());
  collect ~trigger:"forced" st

(** Is an injected collection due at the current safepoint (the boundary
    after instruction [st.instrs])? *)
let[@inline] forced_gc_due st =
  (match st.cfg.vm_gc_schedule with
  | Schedule.Auto | Schedule.At_allocs -> false
  | Schedule.Every n -> n > 0 && st.instrs mod n = 0
  | Schedule.At pts -> Schedule.points_mem pts st.instrs)
  && ((not st.cfg.vm_gc_at_calls_only) || st.at_call)

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
  st.frames <- fr :: st.frames

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
          if fr.fr_dst >= 0 then caller.fr_regs.(fr.fr_dst) <- ret

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
  check_access st addr width "load";
  Gcheap.Mem.load st.heap.Gcheap.Heap.mem ~width addr

let store_mem st width addr v =
  check_access st addr width "store";
  (* generational write barrier; charges no cycles in either gc mode *)
  Gcheap.Heap.note_store st.heap addr width;
  Gcheap.Mem.store st.heap.Gcheap.Heap.mem ~width addr v

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let cstring st addr =
  check_access st addr 1 "string read";
  Gcheap.Mem.load_cstring st.heap.Gcheap.Heap.mem addr

let charge st n = st.cycles <- st.cycles + n

let alloc ?kind ~site st n =
  maybe_collect_for_alloc st;
  let a = Gcheap.Heap.alloc ?kind st.heap (max n 1) in
  if st.tele.tl_on then begin
    Telemetry.Metrics.observe st.tele.tl_alloc_bytes (max n 1);
    match st.tele.tl_prof with
    | Some pr ->
        Telemetry.Heap_profiler.set_tick pr st.instrs;
        Telemetry.Heap_profiler.on_alloc pr ~site ~addr:a ~bytes:(max n 1)
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

let[@inline] opnd regs = function R r -> regs.(r) | K n -> n

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

let[@inline] count st cls = st.dispatch.(cls) <- st.dispatch.(cls) + 1

let push_arg st v =
  if st.nargs = Array.length st.args then begin
    let grown = Array.make (2 * st.nargs) 0 in
    Array.blit st.args 0 grown 0 st.nargs;
    st.args <- grown
  end;
  st.args.(st.nargs) <- v;
  st.nargs <- st.nargs + 1

let rec arg_list st first k acc =
  if k < first then acc else arg_list st first (k - 1) (st.args.(k) :: acc)

let goto fr t =
  if t < 0 then
    raise (Fault (Printf.sprintf "jump to unknown label L%d" (-1 - t)));
  fr.fr_block <- fr.fr_func.xf_blocks.(t);
  fr.fr_pc <- 0

let call st regs c =
  let n = c.c_nargs in
  if n < 0 || n > st.nargs then raise (Fault "argument queue underflow");
  let first = st.nargs - n in
  st.nargs <- first;
  if c.c_func >= 0 then begin
    st.cycles <- st.cycles + st.cfg.vm_machine.Machdesc.md_cost_call;
    push_frame st st.funcs.(c.c_func) first n c.c_dst
  end
  else
    let r =
      builtin st ~site:c.c_site c.c_name (arg_list st first (first + n - 1) [])
    in
    if c.c_dst >= 0 then regs.(c.c_dst) <- r

let step st =
  let fr = st.cur in
  let b = fr.fr_block in
  let pc = fr.fr_pc in
  let regs = fr.fr_regs in
  st.instrs <- st.instrs + 1;
  if pc < Array.length b.xb_code then begin
    fr.fr_pc <- pc + 1;
    st.cycles <- st.cycles + b.xb_cost.(pc);
    match b.xb_code.(pc) with
    | XMov (d, s) ->
        count st cls_mov;
        st.at_call <- false;
        regs.(d) <- opnd regs s
    | XBin (op, d, a, c) ->
        count st cls_alu;
        st.at_call <- false;
        regs.(d) <- eval_bin op (opnd regs a) (opnd regs c)
    | XRel (op, d, a, c) ->
        count st cls_rel;
        st.at_call <- false;
        regs.(d) <- eval_rel op (opnd regs a) (opnd regs c)
    | XLoad (w, d, a, c) ->
        count st cls_load;
        st.at_call <- false;
        regs.(d) <- load_mem st w (opnd regs a + opnd regs c)
    | XStore (w, v, a, c) ->
        count st cls_store;
        st.at_call <- false;
        store_mem st w (opnd regs a + opnd regs c) (opnd regs v)
    | XPush v ->
        count st cls_push;
        st.at_call <- false;
        push_arg st (opnd regs v)
    | XCall c ->
        count st cls_call;
        st.at_call <- true;
        call st regs c
    | XKeepLive ->
        count st cls_keep_live;
        st.at_call <- false
  end
  else begin
    (* terminator *)
    st.cycles <- st.cycles + st.cfg.vm_machine.Machdesc.md_cost_branch;
    count st cls_branch;
    match b.xb_term with
    | XJmp t -> goto fr t
    | XBr (c, t1, t2) -> goto fr (if opnd regs c <> 0 then t1 else t2)
    | XRet v -> pop_frame st (opnd regs v)
  end

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
