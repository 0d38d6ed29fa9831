(** Heap blocks: runs of pages holding uniformly sized objects.

    This mirrors the Boehm collector's [hblk] structure that the paper's
    checking mode depends on: "a tree of fixed height 2 describing pages of
    uniformly sized objects", tuned so that mapping any address to the base
    of its object is fast. *)

type kind =
  | Normal  (** collectable, contents scanned for pointers *)
  | Atomic  (** collectable, contents known pointer-free (GC_malloc_atomic) *)
  | Uncollectable
      (** never swept, contents scanned: VM statics and string literals
          (GC_malloc_uncollectable) *)
  | Stack
      (** never swept, and only the live prefix is scanned — the caller
          passes the current extent to [collect] as a root range *)

type t = {
  blk_start : int;  (** address of the first object *)
  blk_pages : int;  (** number of pages spanned *)
  blk_obj_size : int;  (** rounded object size in bytes *)
  blk_count : int;  (** number of object slots *)
  blk_kind : kind;
  blk_alloc : Bytes.t;  (** one byte per slot: 0 free, 1 allocated *)
  blk_mark : Bytes.t;  (** one byte per slot: mark bit for the collector *)
  blk_age : Bytes.t;
      (** one byte per slot: number of minor collections survived; an
          object whose age reaches the heap's promotion threshold is old *)
  blk_req : int array;  (** requested (un-rounded) size per slot *)
  mutable blk_young : bool;
      (** nursery block: filled front-to-back by the bump cursor, every
          resident object belongs to the current young cohort *)
  mutable blk_bump : int;
      (** next bump slot of a small block: slots at and above this index
          have never been handed out, so they are free, unmarked and on
          no free list.  A promoted nursery page lists all its free slots,
          so its cursor moves to [blk_count]; large blocks keep 0 *)
  mutable blk_aging : bool;
      (** old-generation collectable block holding at least one reused
          or large slot that is still young — it must be visited by minor
          sweeps until every such slot is promoted or freed *)
  blk_young_slots : Bytes.t;
      (** one byte per slot, set exactly on the allocated slots of a
          nursery page or an aging block that are still young, so a minor
          sweep visits those alone; clear on every other block *)
  mutable blk_listed : Bytes.t;
      (** integrity-checker scratch: one byte per slot, set when a free
          list holds the slot; meaningful only during the check numbered
          [blk_listed_pass] *)
  mutable blk_listed_pass : int;
}

let make ~start ~pages ~obj_size ~count ~kind =
  {
    blk_start = start;
    blk_pages = pages;
    blk_obj_size = obj_size;
    blk_count = count;
    blk_kind = kind;
    blk_alloc = Bytes.make count '\000';
    blk_mark = Bytes.make count '\000';
    blk_age = Bytes.make count '\000';
    blk_req = Array.make count 0;
    blk_young = false;
    blk_bump = 0;
    blk_aging = false;
    blk_young_slots = Bytes.make count '\000';
    blk_listed = Bytes.empty;
    blk_listed_pass = 0;
  }

(** Index of the object slot containing [addr], if [addr] lies within the
    object area of this block. *)
let slot_of_addr t addr =
  let off = addr - t.blk_start in
  if off < 0 then None
  else
    let i = off / t.blk_obj_size in
    if i < t.blk_count then Some i else None

(** Index of the slot based exactly at [addr], or -1 when [addr] is not a
    slot base of this block. *)
let slot_base t addr =
  let off = addr - t.blk_start in
  if off < 0 then -1
  else
    let i = off / t.blk_obj_size in
    if i < t.blk_count && off = i * t.blk_obj_size then i else -1

let slot_addr t i = t.blk_start + (i * t.blk_obj_size)

let is_allocated t i = Bytes.get t.blk_alloc i <> '\000'

let set_allocated t i v = Bytes.set t.blk_alloc i (if v then '\001' else '\000')

let set_marked t i v = Bytes.set t.blk_mark i (if v then '\001' else '\000')

let clear_marks t = Bytes.fill t.blk_mark 0 t.blk_count '\000'

let age t i = Char.code (Bytes.get t.blk_age i)

let scanned t =
  match t.blk_kind with
  | Normal | Uncollectable -> true
  | Atomic | Stack -> false

let collectable t =
  match t.blk_kind with
  | Normal | Atomic -> true
  | Uncollectable | Stack -> false

(* auto-scanned in full during every collection *)
let root_scanned t =
  match t.blk_kind with
  | Uncollectable -> true
  | Normal | Atomic | Stack -> false
