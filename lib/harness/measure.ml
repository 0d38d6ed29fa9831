(** Running built programs and computing paper-style slowdown cells. *)

type run_info = {
  o_cycles : int;
  o_instrs : int;
  o_size : int;
  o_output : string;
  o_exit : int;
  o_gc_count : int;
  o_live_objects : int;
  o_live_bytes : int;
  o_emergency : int;  (** emergency (collect-expand) collections run *)
  o_injected_failures : int;  (** allocation failpoints that fired *)
  o_allocs : int;  (** objects allocated (the failpoint ordinal space) *)
  o_increments : int;  (** incremental-marking steps run *)
  o_inc_max_pause : int;  (** largest increment, in words of work *)
  o_inc_overruns : int;  (** increments that exceeded the pause budget *)
  o_gc_max_pause_words : int;
      (** largest single GC pause on the words-of-work clock (any mode;
          tracked unconditionally) *)
  o_gc_total_pause_words : int;
  o_census : Gcheap.Census.t list;
      (** per-collection heap censuses, oldest first; empty unless
          [exec ~census:true] *)
}

type outcome =
  | Ran of run_info
  | Detected of string
      (** the checking runtime (or the VM's access checker) stopped the
          program — the paper's "<fails>" cells *)
  | Corrupted of string
      (** the heap-integrity sanitizer found a violated invariant *)
  | Limit of string  (** a resource ceiling (steps, heap bytes) was hit *)
  | Exhausted of string
      (** out of memory under the hard heap limit (after the configured
          recovery), or an injected failure under the trap policy *)

(* The heap's [Heap_exhausted] messages already begin "heap exhausted:",
   so [Exhausted] renders its message as it stands. *)
let describe = function
  | Ran r -> Printf.sprintf "ran (exit %d)" r.o_exit
  | Detected m -> "detected: " ^ m
  | Corrupted m -> "heap corruption: " ^ m
  | Limit m -> "limit: " ^ m
  | Exhausted m -> m

(** Execute a built program under a {!Request.t} — the canonical
    runner; every other entry point is sugar over this one. *)
let exec ?gc_point_sink ?telemetry ?(census = false) (r : Request.t)
    (b : Build.built) : outcome =
  let machine = r.Request.machine in
  let dc = Machine.Vm.default_config ~machine () in
  let h = Gcheap.Heap.default_config in
  let config =
    {
      dc with
      Machine.Vm.vm_gc_schedule = r.Request.schedule;
      Machine.Vm.vm_check_integrity = r.Request.check_integrity;
      Machine.Vm.vm_final_collect = r.Request.final_collect;
      Machine.Vm.vm_max_instrs =
        Option.value ~default:dc.Machine.Vm.vm_max_instrs r.Request.max_instrs;
      Machine.Vm.vm_max_heap_bytes =
        Option.value ~default:dc.Machine.Vm.vm_max_heap_bytes
          r.Request.max_heap;
      Machine.Vm.vm_heap =
        {
          h with
          Gcheap.Heap.mode = r.Request.gc_mode;
          gc_threshold =
            Option.value ~default:h.Gcheap.Heap.gc_threshold
              r.Request.gc_threshold;
          pause_budget_words =
            Option.value ~default:h.Gcheap.Heap.pause_budget_words
              r.Request.gc_pause_budget;
          heap_limit_words = r.Request.heap_limit;
          oom_policy = r.Request.oom_policy;
          failpoints = r.Request.alloc_failpoints;
        };
      Machine.Vm.vm_gc_point_sink = gc_point_sink;
      Machine.Vm.vm_telemetry = telemetry;
      Machine.Vm.vm_census = census;
    }
  in
  try
    let r = Machine.Vm.run ~config b.Build.b_ir in
    Ran
      {
        o_cycles = r.Machine.Vm.r_cycles;
        o_instrs = r.Machine.Vm.r_instrs;
        o_size = b.Build.b_size;
        o_output = r.Machine.Vm.r_output;
        o_exit = r.Machine.Vm.r_exit;
        o_gc_count = r.Machine.Vm.r_gc_count;
        o_live_objects = r.Machine.Vm.r_live_objects;
        o_live_bytes = r.Machine.Vm.r_live_bytes;
        o_emergency = r.Machine.Vm.r_heap.Gcheap.Heap.emergency_collections;
        o_injected_failures =
          r.Machine.Vm.r_heap.Gcheap.Heap.injected_failures;
        o_allocs = r.Machine.Vm.r_heap.Gcheap.Heap.objects_allocated;
        o_increments = r.Machine.Vm.r_heap.Gcheap.Heap.increments;
        o_inc_max_pause = r.Machine.Vm.r_heap.Gcheap.Heap.inc_max_pause_words;
        o_inc_overruns = r.Machine.Vm.r_heap.Gcheap.Heap.budget_overruns;
        o_gc_max_pause_words = r.Machine.Vm.r_gc_max_pause_words;
        o_gc_total_pause_words = r.Machine.Vm.r_gc_total_pause_words;
        o_census = r.Machine.Vm.r_census;
      }
  with
  | Machine.Vm.Fault msg -> Detected msg
  | Gcheap.Heap.Heap_exhausted msg -> Exhausted msg
  | Machine.Vm.Trap (kind, msg) ->
      Limit (Printf.sprintf "%s: %s" (Machine.Vm.trap_kind_name kind) msg)
  | Gcheap.Heap.Heap_corruption vs ->
      Corrupted
        (String.concat "; "
           (List.map
              (fun v -> Format.asprintf "%a" Gcheap.Heap.pp_violation v)
              vs))

(** Percentage slowdown relative to a baseline cycle count, rendered as in
    the paper's tables. *)
let slowdown_cell ~base_cycles (o : outcome) : string =
  match o with
  | Detected _ -> "<fails>"
  | Corrupted _ -> "<corrupt>"
  | Limit _ -> "<limit>"
  | Exhausted _ -> "<oom>"
  | Ran r ->
      let pct =
        100.0 *. float_of_int (r.o_cycles - base_cycles)
        /. float_of_int base_cycles
      in
      Printf.sprintf "%.0f%%" pct

let size_cell ~base_size (o : outcome) : string =
  match o with
  | Detected _ | Corrupted _ | Limit _ | Exhausted _ -> "-"
  | Ran r ->
      let pct =
        100.0 *. float_of_int (r.o_size - base_size) /. float_of_int base_size
      in
      Printf.sprintf "%.0f%%" pct

let cycles = function Ran r -> Some r.o_cycles | _ -> None

let output = function Ran r -> Some r.o_output | _ -> None

exception Baseline_failed of string

let base_cycles_exn = function
  | Ran r -> r.o_cycles
  | (Detected _ | Corrupted _ | Limit _ | Exhausted _) as o ->
      raise (Baseline_failed (describe o))

(* The census record lives in [Gcheap] (which has no JSON dependency);
   its wire rendering lives here, next to the layer that samples it. *)
let census_to_json (c : Gcheap.Census.t) : Telemetry.Json.t =
  let module Json = Telemetry.Json in
  Json.Obj
    [
      ("collections", Json.Int c.Gcheap.Census.cn_collections);
      ("phase", Json.Str c.Gcheap.Census.cn_phase);
      ( "classes",
        Json.List
          (List.map
             (fun (r : Gcheap.Census.class_row) ->
               Json.Obj
                 [
                   ("size", Json.Int r.Gcheap.Census.cr_size);
                   ("blocks", Json.Int r.Gcheap.Census.cr_blocks);
                   ("slots", Json.Int r.Gcheap.Census.cr_slots);
                   ("allocated", Json.Int r.Gcheap.Census.cr_allocated);
                 ])
             c.Gcheap.Census.cn_classes) );
      ( "free_page_pool",
        Json.Obj
          [
            ("runs", Json.Int c.Gcheap.Census.cn_free_page_runs);
            ("pages", Json.Int c.Gcheap.Census.cn_free_pages);
          ] );
      ( "ages",
        Json.List
          (Array.to_list
             (Array.map (fun n -> Json.Int n) c.Gcheap.Census.cn_age)) );
      ("young", Json.Int c.Gcheap.Census.cn_young);
      ("old", Json.Int c.Gcheap.Census.cn_old);
      ( "cards",
        Json.Obj
          [
            ("dirty", Json.Int c.Gcheap.Census.cn_dirty_cards);
            ("total", Json.Int c.Gcheap.Census.cn_cards);
            ("dirty_ratio", Json.Float (Gcheap.Census.dirty_ratio c));
          ] );
      ( "nursery",
        Json.Obj
          [
            ("pages", Json.Int c.Gcheap.Census.cn_nursery_pages);
            ("slots", Json.Int c.Gcheap.Census.cn_nursery_slots);
          ] );
      ("live_words", Json.Int c.Gcheap.Census.cn_live_words);
      ("committed_words", Json.Int c.Gcheap.Census.cn_committed_words);
      ("fragmentation", Json.Float (Gcheap.Census.fragmentation c));
    ]
