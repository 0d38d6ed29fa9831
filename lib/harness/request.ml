(** The unified request record.  See the interface for the contract. *)

type t = {
  label : string;
  source : string;
  config : Build.config;
  machine : Machine.Machdesc.t;
  analysis : Gcsafe.Mode.analysis;
  gc_mode : Gcheap.Heap.gc_mode;
  loop_heuristic : bool;
  use_cache : bool;
  schedule : Machine.Schedule.t;
  check_integrity : bool;
  final_collect : bool;
  gc_threshold : int option;
  gc_pause_budget : int option;
  max_instrs : int option;
  max_heap : int option;
  heap_limit : int;
  oom_policy : Gcheap.Heap.oom_policy;
  alloc_failpoints : Gcheap.Failpoint.t;
  trace_id : int;
}

(* the collector's defaults are {!Gcheap.Heap.default_config}'s; the
   optional [gc_threshold] and [gc_pause_budget] stay [None] and take
   theirs there when the request runs *)
let make ?(label = "") ?(config = Build.Safe)
    ?(machine = Machine.Machdesc.sparc10) ?analysis
    ?(gc_mode = Gcheap.Heap.default_config.mode) ?loop_heuristic ?use_cache
    ?(schedule = Machine.Schedule.Auto) ?(check_integrity = false)
    ?(final_collect = false) ?gc_threshold ?gc_pause_budget ?max_instrs
    ?max_heap ?(heap_limit = Gcheap.Heap.default_config.heap_limit_words)
    ?(oom_policy = Gcheap.Heap.default_config.oom_policy)
    ?(alloc_failpoints = Gcheap.Heap.default_config.failpoints)
    ?(trace_id = 0) source =
  let d = Build.for_machine machine in
  {
    label;
    source;
    config;
    machine;
    analysis = Option.value ~default:d.Build.analysis analysis;
    gc_mode;
    loop_heuristic = Option.value ~default:d.Build.loop_heuristic loop_heuristic;
    use_cache = Option.value ~default:d.Build.use_cache use_cache;
    schedule;
    check_integrity;
    final_collect;
    gc_threshold;
    gc_pause_budget;
    max_instrs;
    max_heap;
    heap_limit;
    oom_policy;
    alloc_failpoints;
    trace_id;
  }

let build_options (r : t) : Build.options =
  {
    Build.nregs = r.machine.Machine.Machdesc.md_regs;
    Build.loop_heuristic = r.loop_heuristic;
    Build.use_cache = r.use_cache;
    Build.analysis = r.analysis;
  }

let cache_key r = Build.cache_key (build_options r) r.config r.source

(* the harness defaults ([A_flow], stop-the-world collection) stay
   untagged; the variants announce themselves *)
let describe r =
  let tag =
    match r.analysis with
    | Gcsafe.Mode.A_flow -> ""
    | Gcsafe.Mode.A_none -> " [analysis=none]"
  in
  let gtag =
    match r.gc_mode with
    | Gcheap.Heap.Stw -> ""
    | Gcheap.Heap.Gen -> " [gen]"
    | Gcheap.Heap.Inc -> " [inc]"
  in
  Printf.sprintf "%s @ %s%s%s"
    (Build.config_name r.config)
    r.machine.Machine.Machdesc.md_name tag gtag

(* ------------------------------------------------------------------ *)
(* Matrices                                                            *)
(* ------------------------------------------------------------------ *)

type matrix = {
  m_configs : Build.config list;
  m_machines : Machine.Machdesc.t list;
  m_analyses : Gcsafe.Mode.analysis list;
  m_gc_modes : Gcheap.Heap.gc_mode list;
  m_max_instrs : int option;
  m_max_heap : int option;
}

let default_matrix =
  {
    m_configs = Build.all_configs;
    m_machines =
      [
        Machine.Machdesc.sparc2;
        Machine.Machdesc.sparc10;
        Machine.Machdesc.pentium90;
      ];
    m_analyses = [ Gcsafe.Mode.A_flow ];
    m_gc_modes = [ Gcheap.Heap.Stw ];
    m_max_instrs = None;
    m_max_heap = None;
  }

let expand (m : matrix) (source : string) : t list =
  let variants config =
    if Build.preprocessed config then List.sort_uniq compare m.m_analyses
    else [ Build.default.Build.analysis ]
  in
  let gc_modes = List.sort_uniq compare m.m_gc_modes in
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun config ->
          List.concat_map
            (fun analysis ->
              List.map
                (fun gc_mode ->
                  make ~config ~machine ~analysis ~gc_mode
                    ~check_integrity:true ~final_collect:true
                    ?max_instrs:m.m_max_instrs ?max_heap:m.m_max_heap source)
                gc_modes)
            (variants config))
        m.m_configs)
    m.m_machines

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

module Json = Telemetry.Json

let to_json (r : t) : Json.t =
  let base =
    [
      ("label", Json.Str r.label);
      ("source", Json.Str r.source);
      ("config", Json.Str (Build.config_id r.config));
      ("machine", Json.Str r.machine.Machine.Machdesc.md_name);
      ("analysis", Json.Str (Gcsafe.Mode.analysis_to_string r.analysis));
      ("gc_mode", Json.Str (Gcheap.Heap.gc_mode_name r.gc_mode));
      ("loop_heuristic", Json.Bool r.loop_heuristic);
      ("use_cache", Json.Bool r.use_cache);
      ("schedule", Json.Str (Machine.Schedule.to_string r.schedule));
      ("check_integrity", Json.Bool r.check_integrity);
      ("final_collect", Json.Bool r.final_collect);
      ("heap_limit", Json.Int r.heap_limit);
      ("oom_policy", Json.Str (Gcheap.Heap.oom_policy_name r.oom_policy));
      ("alloc_failpoints", Json.Str (Gcheap.Failpoint.to_string r.alloc_failpoints));
    ]
  in
  let opt name = function None -> [] | Some n -> [ (name, Json.Int n) ] in
  Json.Obj
    (base
    @ opt "gc_threshold" r.gc_threshold
    @ opt "gc_pause_budget" r.gc_pause_budget
    @ opt "max_instrs" r.max_instrs
    @ opt "max_heap" r.max_heap
    @ opt "trace_id" (if r.trace_id = 0 then None else Some r.trace_id))

let of_json (doc : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let str name =
    match Json.member name doc with
    | Some (Json.Str s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
    | None -> Ok None
  in
  let boolean name ~default =
    match Json.member name doc with
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
    | None -> Ok default
  in
  let int_opt name =
    match Json.member name doc with
    | Some (Json.Int n) -> Ok (Some n)
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
    | None -> Ok None
  in
  let parse name conv = function
    | None -> Ok None
    | Some s -> (
        match conv s with
        | Some v -> Ok (Some v)
        | None -> Error (Printf.sprintf "field %S: unknown value %S" name s))
  in
  let* source =
    match Json.member "source" doc with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "field \"source\" must be a string"
    | None -> Error "missing required field \"source\""
  in
  let* label = str "label" in
  let* config = Result.bind (str "config") (parse "config" Build.config_of_string) in
  let* machine = Result.bind (str "machine") (parse "machine" Machine.Machdesc.by_name) in
  let* analysis =
    Result.bind (str "analysis") (parse "analysis" Gcsafe.Mode.analysis_of_string)
  in
  let* gc_mode =
    Result.bind (str "gc_mode") (parse "gc_mode" Gcheap.Heap.gc_mode_of_string)
  in
  let* schedule =
    Result.bind (str "schedule") (parse "schedule" Machine.Schedule.of_string)
  in
  let* oom_policy =
    Result.bind (str "oom_policy") (parse "oom_policy" Gcheap.Heap.oom_policy_of_string)
  in
  let* alloc_failpoints =
    Result.bind (str "alloc_failpoints")
      (parse "alloc_failpoints" Gcheap.Failpoint.of_string)
  in
  let* loop_heuristic = boolean "loop_heuristic" ~default:false in
  let* use_cache = boolean "use_cache" ~default:true in
  let* check_integrity = boolean "check_integrity" ~default:false in
  let* final_collect = boolean "final_collect" ~default:false in
  let* gc_threshold = int_opt "gc_threshold" in
  let* gc_pause_budget = int_opt "gc_pause_budget" in
  let* max_instrs = int_opt "max_instrs" in
  let* max_heap = int_opt "max_heap" in
  let* heap_limit = int_opt "heap_limit" in
  let* trace_id = int_opt "trace_id" in
  let r =
    make ?label ?config ?machine ?analysis ?gc_mode ~loop_heuristic ~use_cache
      ?schedule ~check_integrity ~final_collect ?gc_threshold ?gc_pause_budget
      ?max_instrs ?max_heap ?heap_limit ?oom_policy ?alloc_failpoints ?trace_id
      source
  in
  Ok r
