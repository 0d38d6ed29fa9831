(** Sorted insertion/deletion lists applied to original source text — the
    output machinery of the paper's preprocessor implementation.

    Edit offsets always refer to the {e original} string; same-offset
    insertions apply in registration order; overlapping deletions are
    rejected. *)

type t

exception Overlap of int * int
(** Two deletions overlap (reported with their offsets). *)

val create : unit -> t

val add : t -> offset:int -> delete:int -> insert:string -> unit
(** Record one edit.  @raise Invalid_argument on negative offsets. *)

val insert : t -> offset:int -> string -> unit

val delete : t -> offset:int -> len:int -> unit

val replace : t -> offset:int -> len:int -> string -> unit

val apply : t -> string -> string
(** Apply all recorded edits.  @raise Overlap on overlapping deletions. *)
