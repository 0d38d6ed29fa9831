(** Deterministic allocation-failure injection.

    The chaos harness needs every out-of-memory recovery path to be
    exercisable on demand, exactly as the GC-schedule injector makes
    every collection point reachable: a failure plan names the failing
    allocations outright (by allocation ordinal), so a failing run is
    reproducible bit for bit and a search over failure points is a loop
    over plans.  The representation mirrors [Machine.Schedule]: explicit
    point sets are a bit-set over ordinals, and [Machine.Schedule] reuses
    this bit-set for its safepoint indices.

    Ordinals are 1-based: point [k] means "the [k]th allocation the heap
    performs fails". *)

type points = Bytes.t
(** A bit-set of allocation ordinals. *)

let no_points : points = Bytes.empty

let points_of_list (l : int list) : points =
  let m = List.fold_left Int.max (-1) l in
  if m < 0 then no_points
  else begin
    let b = Bytes.make ((m / 8) + 1) '\000' in
    List.iter
      (fun i ->
        if i >= 0 then
          Bytes.set b (i / 8)
            (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8)))))
      l;
    b
  end

let points_mem (b : points) i =
  i >= 0
  && i / 8 < Bytes.length b
  && Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

(* The least member above [i], or -1: whole zero bytes are stepped over,
   so walking a set upward in order costs its length in bytes. *)
let points_next (b : points) i =
  let n = 8 * Bytes.length b in
  let rec bit k =
    if k >= n then -1
    else if k land 7 = 0 && Bytes.get b (k / 8) = '\000' then bit (k + 8)
    else if points_mem b k then k
    else bit (k + 1)
  in
  bit (Int.max 0 (i + 1))

let points_to_list (b : points) =
  let acc = ref [] in
  for i = (8 * Bytes.length b) - 1 downto 0 do
    if points_mem b i then acc := i :: !acc
  done;
  !acc

let points_cardinal b = List.length (points_to_list b)

type t =
  | Never  (** no injected failures: the chaos-off configuration *)
  | Nth of int  (** fail exactly the [n]th allocation *)
  | Every of int  (** fail every [n]th allocation *)
  | At of points  (** fail at exactly these allocation ordinals *)

let at_list l = At (points_of_list l)

(** Does the plan fail the allocation with (1-based) ordinal [ordinal]? *)
let fires t ordinal =
  match t with
  | Never -> false
  | Nth n -> ordinal = n
  | Every n -> n > 0 && ordinal mod n = 0
  | At pts -> points_mem pts ordinal

let to_string = function
  | Never -> "none"
  | Nth n -> Printf.sprintf "nth:%d" n
  | Every n -> Printf.sprintf "every:%d" n
  | At pts -> (
      match points_to_list pts with
      | [] -> "at:{}"
      | l ->
          Printf.sprintf "at:{%s}"
            (String.concat "," (List.map string_of_int l)))

(** Parse a plan: ["none"], ["nth:K"], ["every:K"], ["at:{K1,K2}"] (the
    {!to_string} form, so printed plans replay verbatim), a single
    ordinal ["K"] (shorthand for [Nth K]), or a bare comma-separated
    ordinal list ["K1,K2,..."]. *)
let of_string s =
  let int_of s = int_of_string_opt (String.trim s) in
  let point_set s =
    match String.split_on_char ',' s with
    | [ "" ] -> Some (At no_points)
    | parts ->
        let pts = List.map int_of parts in
        if List.exists Option.is_none pts then None
        else Some (at_list (List.map Option.get pts))
  in
  match String.trim s with
  | "none" | "" -> Some Never
  | s when String.length s > 4 && String.sub s 0 4 = "nth:" ->
      Option.map (fun n -> Nth n) (int_of (String.sub s 4 (String.length s - 4)))
  | s when String.length s > 6 && String.sub s 0 6 = "every:" ->
      Option.map
        (fun n -> Every n)
        (int_of (String.sub s 6 (String.length s - 6)))
  | s
    when String.length s >= 5
         && String.sub s 0 4 = "at:{"
         && s.[String.length s - 1] = '}' ->
      point_set (String.sub s 4 (String.length s - 5))
  | s -> (
      match String.split_on_char ',' s with
      | [ one ] -> Option.map (fun n -> Nth n) (int_of one)
      | _ -> point_set s)
