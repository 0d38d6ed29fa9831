(** The height-2 page map: page number -> heap block descriptor.

    [GC_base]-style lookups do exactly two array indexings — the structure
    the paper contrasts with Jones & Kelly's splay tree.  The lookup
    itself is {!Heap.block_at}: the heap's checked accesses and its
    collector read the two levels in their own module. *)

val level2_bits : int
(** A page number's low [level2_bits] bits index its second-level array;
    the rest index [top]. *)

type t = private {
  mutable top : Block.t option array option array;
  mutable mapped : int;  (** pages that map to some block *)
}

val create : unit -> t

val set_block : t -> Block.t -> unit
(** Register a block for every page it spans. *)

val clear_block : t -> Block.t -> unit

val mapped_pages : t -> int
(** How many pages map to some block. *)
