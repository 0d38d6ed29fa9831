(** Deterministic GC schedules for the VM's fault injector.

    Safepoints are instruction boundaries: index [k] means "collect
    immediately after the [k]th executed instruction".  Explicit schedules
    are bit-sets, so membership during execution is O(1) and a shrinker can
    manipulate schedules as plain point lists. *)

type points
(** A bit-set of safepoint indices. *)

val no_points : points

val points_of_list : int list -> points
(** Negative indices are ignored. *)

val points_mem : points -> int -> bool

val points_next : points -> int -> int
(** The least safepoint index of the set above the given one, or [-1]:
    how the VM finds its next injected collection without testing every
    step. *)

val points_to_list : points -> int list
(** Ascending order. *)

val points_cardinal : points -> int

type t =
  | Auto  (** no injected collections: allocation volume triggers only *)
  | Every of int  (** collect at every [n]th safepoint *)
  | At_allocs  (** collect at every allocation site *)
  | At of points  (** collect at exactly these safepoint indices *)

val at_list : int list -> t

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} ("auto", "every-N", "at-allocs",
    "at:\{k,k,...\}"); [None] on a malformed spec. *)
