(** Heap blocks: runs of pages holding uniformly sized objects (the Boehm
    collector's [hblk]). *)

type kind =
  | Normal  (** collectable, contents scanned for pointers *)
  | Atomic  (** collectable, contents known pointer-free *)
  | Uncollectable  (** never swept, contents scanned (statics) *)
  | Stack
      (** never swept; only the live prefix passed to [collect] as a root
          range is scanned *)

type t = {
  blk_start : int;  (** address of the first object *)
  blk_pages : int;  (** number of pages spanned *)
  blk_obj_size : int;  (** rounded object size in bytes *)
  blk_count : int;  (** number of object slots *)
  blk_kind : kind;
  blk_alloc : Bytes.t;
  blk_mark : Bytes.t;
  blk_age : Bytes.t;  (** minor collections survived, one byte per slot *)
  blk_req : int array;  (** requested (un-rounded) size per slot *)
  mutable blk_young : bool;
      (** nursery block: filled front-to-back by the bump cursor; cleared
          when the page's cohort is promoted into the old generation *)
  mutable blk_bump : int;
      (** next bump slot of a small block; slots at and above it have
          never been handed out (free, unmarked, on no free list) *)
  mutable blk_aging : bool;
      (** old-generation collectable block holding reused or large slots
          that are still young (visited by minor sweeps until they
          promote or die) *)
  blk_young_slots : Bytes.t;
      (** per-slot flags: on a nursery page or an aging block, set
          exactly on its allocated slots that are still young; clear on
          every other block *)
  mutable blk_listed : Bytes.t;
      (** integrity-checker scratch: per-slot "on a free list" flags *)
  mutable blk_listed_pass : int;
      (** the integrity check [blk_listed] belongs to *)
}

val make :
  start:int -> pages:int -> obj_size:int -> count:int -> kind:kind -> t

val slot_of_addr : t -> int -> int option
(** Index of the object slot containing an address within the block. *)

val slot_base : t -> int -> int
(** Index of the slot based exactly at an address, or -1 when the address
    is not a slot base of the block. *)

val slot_addr : t -> int -> int

val is_allocated : t -> int -> bool

val set_allocated : t -> int -> bool -> unit

val set_marked : t -> int -> bool -> unit

val clear_marks : t -> unit

val age : t -> int -> int
(** Number of minor collections the slot's object has survived. *)

val scanned : t -> bool
(** Are object contents scanned for pointers? *)

val collectable : t -> bool

val root_scanned : t -> bool
(** Auto-scanned in full during every collection (uncollectable data). *)
