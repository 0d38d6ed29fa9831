(* Chrome trace-event tracer.  See the interface for the contract. *)

type event = {
  ev_ph : char;
  ev_name : string;
  ev_ts : int;
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

type t = {
  mutex : Mutex.t;
  mutable evs : event list; (* reversed *)
  t0 : float; (* Unix epoch seconds at creation *)
}

let create () = { mutex = Mutex.create (); evs = []; t0 = Unix.gettimeofday () }

let now_us t = Float.to_int ((Unix.gettimeofday () -. t.t0) *. 1e6)

let push t ev =
  Mutex.lock t.mutex;
  t.evs <- ev :: t.evs;
  Mutex.unlock t.mutex

let tid () = (Domain.self () :> int)

let begin_span t ?(args = []) name =
  push t
    { ev_ph = 'B'; ev_name = name; ev_ts = now_us t; ev_tid = tid ();
      ev_args = args }

let end_span t name =
  push t
    { ev_ph = 'E'; ev_name = name; ev_ts = now_us t; ev_tid = tid ();
      ev_args = [] }

let instant t ?(args = []) name =
  push t
    { ev_ph = 'i'; ev_name = name; ev_ts = now_us t; ev_tid = tid ();
      ev_args = args }

let counter t name series =
  push t
    { ev_ph = 'C'; ev_name = name; ev_ts = now_us t; ev_tid = tid ();
      ev_args = List.map (fun (k, v) -> (k, Json.Int v)) series }

(* Lane names are process-global: pool workers register once at spawn,
   before any particular tracer exists; tracers look names up at render
   time for the lanes their events touch. *)
let lanes : (int, string) Hashtbl.t = Hashtbl.create 8
let lanes_mutex = Mutex.create ()

let register_lane name =
  Mutex.lock lanes_mutex;
  Hashtbl.replace lanes (tid ()) name;
  Mutex.unlock lanes_mutex

let lane_name t =
  Mutex.lock lanes_mutex;
  let n = Hashtbl.find_opt lanes t in
  Mutex.unlock lanes_mutex;
  match n with
  | Some n -> n
  | None -> if t = 0 then "main" else Printf.sprintf "lane-%d" t

let events t =
  Mutex.lock t.mutex;
  let evs = t.evs in
  Mutex.unlock t.mutex;
  List.rev evs

let event_to_json ev =
  let base =
    [
      ("name", Json.Str ev.ev_name);
      ("ph", Json.Str (String.make 1 ev.ev_ph));
      ("ts", Json.Int ev.ev_ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let args =
    match (ev.ev_ph, ev.ev_args) with
    | 'E', [] -> []
    | _, args -> [ ("args", Json.Obj args) ]
  in
  (* instants scope to their thread so Perfetto draws them in-lane *)
  let scope = if ev.ev_ph = 'i' then [ ("s", Json.Str "t") ] else [] in
  Json.Obj (base @ scope @ args)

let to_json t =
  let evs = events t in
  let tids = List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs) in
  let meta =
    List.map
      (fun tid ->
        event_to_json
          { ev_ph = 'M'; ev_name = "thread_name"; ev_ts = 0; ev_tid = tid;
            ev_args = [ ("name", Json.Str (lane_name tid)) ] })
      tids
  in
  Json.Obj [ ("traceEvents", Json.List (meta @ List.map event_to_json evs)) ]

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json t);
      output_char oc '\n')

let normalize evs =
  (* which worker lane a task lands on is a scheduling accident, so the
     canonical form erases lanes along with timestamps: what is
     deterministic across runs of the same workload is the multiset of
     events.  Per-lane B/E structure is [check]'s job, not this one's. *)
  let cleared = List.map (fun ev -> { ev with ev_ts = 0; ev_tid = 0 }) evs in
  List.sort
    (fun a b ->
      let c = String.compare a.ev_name b.ev_name in
      if c <> 0 then c
      else
        let c = Char.compare a.ev_ph b.ev_ph in
        if c <> 0 then c
        else
          String.compare
            (Json.to_string (Json.Obj a.ev_args))
            (Json.to_string (Json.Obj b.ev_args)))
    cleared

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let check doc =
  let ( let* ) = Result.bind in
  let* evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> Ok evs
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents"
  in
  let str_field ev k =
    match Json.member k ev with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "event missing string field %S" k)
  in
  let int_field ev k =
    match Json.member k ev with
    | Some (Json.Int _) -> Ok ()
    | _ -> Error (Printf.sprintf "event missing integer field %S" k)
  in
  (* per-lane stacks of open span names *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let rec go i = function
    | [] ->
        let unbalanced =
          Hashtbl.fold
            (fun tid stack acc ->
              match stack with [] -> acc | n :: _ -> (tid, n) :: acc)
            stacks []
        in
        (match unbalanced with
        | [] -> Ok ()
        | (tid, n) :: _ ->
            Error (Printf.sprintf "lane %d: unclosed span %S" tid n))
    | ev :: rest ->
        let at msg = Printf.sprintf "event %d: %s" i msg in
        let* name = Result.map_error at (str_field ev "name") in
        let* ph = Result.map_error at (str_field ev "ph") in
        let* () = Result.map_error at (int_field ev "ts") in
        let* () = Result.map_error at (int_field ev "pid") in
        let* () = Result.map_error at (int_field ev "tid") in
        let tid =
          match Json.member "tid" ev with Some (Json.Int t) -> t | _ -> 0
        in
        let* () =
          match ph with
          | "B" | "E" | "i" | "C" | "M" -> Ok ()
          | _ -> Error (at (Printf.sprintf "bad phase %S" ph))
        in
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        let* () =
          match ph with
          | "B" ->
              Hashtbl.replace stacks tid (name :: stack);
              Ok ()
          | "E" -> (
              match stack with
              | top :: rest when top = name ->
                  Hashtbl.replace stacks tid rest;
                  Ok ()
              | top :: _ ->
                  Error
                    (at
                       (Printf.sprintf "lane %d: E %S closes open span %S" tid
                          name top))
              | [] ->
                  Error
                    (at (Printf.sprintf "lane %d: E %S with no open span" tid name))
              )
          | _ -> Ok ()
        in
        go (i + 1) rest
  in
  go 0 evs
