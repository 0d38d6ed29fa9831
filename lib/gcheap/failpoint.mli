(** Deterministic allocation-failure injection plans.

    Mirrors [Machine.Schedule]: a plan names the allocations that fail
    (by 1-based allocation ordinal), so every out-of-memory recovery
    path is reachable on demand and a failing run replays bit for bit.
    The heap consults the plan on every allocation; what a fired point
    does (trap or emergency-collect) is the heap's [oom_policy]. *)

type points = Bytes.t
(** A bit-set of allocation ordinals. *)

val no_points : points

val points_of_list : int list -> points

val points_mem : points -> int -> bool

val points_next : points -> int -> int
(** [points_next b i]: the least member greater than [i], or [-1] when
    there is none. *)

val points_to_list : points -> int list

val points_cardinal : points -> int

type t =
  | Never  (** no injected failures: the chaos-off configuration *)
  | Nth of int  (** fail exactly the [n]th allocation *)
  | Every of int  (** fail every [n]th allocation *)
  | At of points  (** fail at exactly these allocation ordinals *)

val at_list : int list -> t

val fires : t -> int -> bool
(** [fires t ordinal]: does the plan fail the allocation with (1-based)
    ordinal [ordinal]? *)

val to_string : t -> string
(** ["none"], ["nth:K"], ["every:K"], ["at:{K1,K2}"]. *)

val of_string : string -> t option
(** Parse ["none"], ["nth:K"], ["every:K"], a bare ordinal ["K"]
    ([Nth K]), or a comma-separated point set ["K1,K2,..."]. *)
