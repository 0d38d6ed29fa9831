(** Deterministic GC schedules for the VM's fault injector.

    The paper's hazard is a race: a collection must land in the narrow
    window between the overwrite of the last recognizable pointer and the
    final use of the derived one.  Rather than hoping an asynchronous
    collector hits the window, a schedule names the collection points
    outright, so a failing interleaving is reproducible bit for bit and a
    search over interleavings is just a loop over schedules.

    Safepoints are instruction boundaries: the VM's dynamic instruction
    counter after each executed instruction (terminators included) is the
    safepoint index, so index [k] means "collect immediately after the
    [k]th executed instruction". *)

(* A bit-set of safepoint indices, in the allocation-failure plans'
   representation. *)
type points = Gcheap.Failpoint.points

let no_points = Gcheap.Failpoint.no_points
let points_of_list = Gcheap.Failpoint.points_of_list
let points_mem = Gcheap.Failpoint.points_mem
let points_next = Gcheap.Failpoint.points_next
let points_to_list = Gcheap.Failpoint.points_to_list
let points_cardinal = Gcheap.Failpoint.points_cardinal

type t =
  | Auto  (** no injected collections: allocation volume triggers only *)
  | Every of int  (** collect at every [n]th safepoint *)
  | At_allocs  (** collect at every allocation site *)
  | At of points  (** collect at exactly these safepoint indices *)

let at_list l = At (points_of_list l)

let to_string = function
  | Auto -> "auto"
  | Every n -> Printf.sprintf "every-%d" n
  | At_allocs -> "at-allocs"
  | At pts -> (
      match points_to_list pts with
      | [] -> "at:{}"
      | l ->
          Printf.sprintf "at:{%s}"
            (String.concat "," (List.map string_of_int l)))

(* the inverse of [to_string], for wire requests; a malformed spec is
   [None], never an exception *)
let of_string s =
  let prefix p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  match s with
  | "auto" -> Some Auto
  | "at-allocs" -> Some At_allocs
  | _ when prefix "every-" -> (
      match int_of_string_opt (after "every-") with
      | Some n when n > 0 -> Some (Every n)
      | _ -> None)
  | "at:{}" -> Some (At no_points)
  | _ when prefix "at:{" && s.[String.length s - 1] = '}' -> (
      let body = String.sub s 4 (String.length s - 5) in
      let parts = String.split_on_char ',' body in
      let pts = List.map (fun p -> int_of_string_opt (String.trim p)) parts in
      if List.for_all (function Some k -> k >= 0 | None -> false) pts then
        Some (at_list (List.filter_map Fun.id pts))
      else None)
  | _ -> None
