(* Flight recorder.  See the interface for the contract. *)

type event = {
  fr_ordinal : int;
  fr_ts : int;
  fr_kind : string;
  fr_args : (string * Json.t) list;
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  ring : event option array;  (* slot = ordinal mod capacity *)
  mutable next : int;  (* next ordinal; total events ever recorded *)
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  { capacity; mutex = Mutex.create (); ring = Array.make capacity None;
    next = 0 }

let capacity t = t.capacity

let record t ~ts kind args =
  Mutex.lock t.mutex;
  let ev = { fr_ordinal = t.next; fr_ts = ts; fr_kind = kind; fr_args = args } in
  t.ring.(t.next mod t.capacity) <- Some ev;
  t.next <- t.next + 1;
  Mutex.unlock t.mutex;
  ev

let recorded t =
  Mutex.lock t.mutex;
  let n = t.next in
  Mutex.unlock t.mutex;
  n

let dropped t = max 0 (recorded t - t.capacity)

let events t =
  Mutex.lock t.mutex;
  let n = t.next in
  let len = min n t.capacity in
  let first = n - len in
  let evs =
    List.init len (fun i ->
        match t.ring.((first + i) mod t.capacity) with
        | Some ev -> ev
        | None -> assert false)
  in
  Mutex.unlock t.mutex;
  evs

let event_to_json ev =
  Json.Obj
    [
      ("ordinal", Json.Int ev.fr_ordinal);
      ("ts", Json.Int ev.fr_ts);
      ("kind", Json.Str ev.fr_kind);
      ("args", Json.Obj ev.fr_args);
    ]

let dump t =
  let evs = events t in
  Json.Obj
    [
      ( "flightRecorder",
        Json.Obj
          [
            ("capacity", Json.Int t.capacity);
            ("recorded", Json.Int (recorded t));
            ("dropped", Json.Int (dropped t));
            ("events", Json.List (List.map event_to_json evs));
          ] );
    ]

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (dump t);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let is_dump doc = Json.member "flightRecorder" doc <> None

(* Span pairing: kinds spelled "<name>.begin" / "<name>.end" open and
   close a span keyed by the name plus the event's trace_id argument
   (when present), so per-request phase spans balance independently. *)
let span_key ev =
  let suffix s = String.length ev.fr_kind > String.length s
                 && String.ends_with ~suffix:s ev.fr_kind in
  let strip s = String.sub ev.fr_kind 0 (String.length ev.fr_kind - String.length s) in
  let role =
    if suffix ".begin" then Some (`Begin, strip ".begin")
    else if suffix ".end" then Some (`End, strip ".end")
    else None
  in
  match role with
  | None -> None
  | Some (role, name) ->
      let tid =
        match List.assoc_opt "trace_id" ev.fr_args with
        | Some (Json.Int n) -> string_of_int n
        | _ -> ""
      in
      Some (role, name ^ "#" ^ tid)

let check doc =
  let ( let* ) = Result.bind in
  let* fr =
    match Json.member "flightRecorder" doc with
    | Some (Json.Obj _ as o) -> Ok o
    | Some _ -> Error "flightRecorder is not an object"
    | None -> Error "missing flightRecorder"
  in
  let int_field k =
    match Json.member k fr with
    | Some (Json.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "missing integer field %S" k)
  in
  let* capacity = int_field "capacity" in
  let* recorded = int_field "recorded" in
  let* dropped = int_field "dropped" in
  let* evs =
    match Json.member "events" fr with
    | Some (Json.List evs) -> Ok evs
    | _ -> Error "events is not an array"
  in
  let* () = if capacity >= 1 then Ok () else Error "capacity must be >= 1" in
  let len = List.length evs in
  (* wraparound coherence: the window is exactly the last
     min(recorded, capacity) events *)
  let* () =
    if len <> min recorded capacity then
      Error
        (Printf.sprintf
           "window incoherent: %d event(s) for %d recorded, capacity %d" len
           recorded capacity)
    else Ok ()
  in
  let* () =
    if dropped <> recorded - len then
      Error
        (Printf.sprintf "dropped count %d disagrees with recorded %d - %d kept"
           dropped recorded len)
    else Ok ()
  in
  let parse i ev =
    let field k =
      match Json.member k ev with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: missing field %S" i k)
    in
    let* ordinal =
      Result.bind (field "ordinal") (function
        | Json.Int n -> Ok n
        | _ -> Error (Printf.sprintf "event %d: ordinal not an integer" i))
    in
    let* ts =
      Result.bind (field "ts") (function
        | Json.Int n -> Ok n
        | _ -> Error (Printf.sprintf "event %d: ts not an integer" i))
    in
    let* kind =
      Result.bind (field "kind") (function
        | Json.Str s -> Ok s
        | _ -> Error (Printf.sprintf "event %d: kind not a string" i))
    in
    let args =
      match Json.member "args" ev with Some (Json.Obj a) -> a | _ -> []
    in
    Ok { fr_ordinal = ordinal; fr_ts = ts; fr_kind = kind; fr_args = args }
  in
  let opens : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec go i expected = function
    | [] ->
        if dropped = 0 then
          let unbalanced =
            Hashtbl.fold
              (fun key n acc -> if n <> 0 then (key, n) :: acc else acc)
              opens []
          in
          match List.sort compare unbalanced with
          | [] -> Ok ()
          | (key, n) :: _ ->
              Error (Printf.sprintf "span %S unbalanced (%+d)" key n)
        else Ok ()
    | ev :: rest ->
        let* ev = parse i ev in
        (* monotone, gap-free ordinals *)
        let* () =
          if ev.fr_ordinal <> expected then
            Error
              (Printf.sprintf "event %d: ordinal %d, expected %d" i
                 ev.fr_ordinal expected)
          else Ok ()
        in
        let* () =
          match span_key ev with
          | None -> Ok ()
          | Some (`Begin, key) ->
              Hashtbl.replace opens key
                (1 + Option.value ~default:0 (Hashtbl.find_opt opens key));
              Ok ()
          | Some (`End, key) ->
              let n = Option.value ~default:0 (Hashtbl.find_opt opens key) in
              if n > 0 then begin
                Hashtbl.replace opens key (n - 1);
                Ok ()
              end
              else if dropped > 0 then
                (* the matching begin may have been evicted *)
                Ok ()
              else
                Error
                  (Printf.sprintf "event %d: %S closes an unopened span" i
                     ev.fr_kind)
        in
        go (i + 1) (expected + 1) rest
  in
  go 0 dropped evs
