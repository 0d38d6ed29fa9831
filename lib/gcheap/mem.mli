(** Flat byte-addressed memory for the VM and the collector.

    Addresses are plain OCaml ints; address 0 is NULL and the first page is
    never handed out.  Words are 8 bytes little-endian; narrow loads
    sign-extend.  The arena grows on demand in page-sized steps. *)

val page_size : int
(** 4096 bytes. *)

val page_bits : int
(** [log2 page_size]. *)

type t = private {
  mutable data : Bytes.t;
      (** the arena's bytes; at least [brk] long.  {!Heap} reads and
          writes them directly on its checked accesses and scan loops *)
  mutable brk : int;  (** first never-allocated address; grows page-wise *)
}

exception Fault of int
(** Raised on access outside the allocated arena, with the faulting
    address. *)

val create : unit -> t
(** A fresh arena with only the (never-accessible) null page reserved.
    Reuses the buffer of the last arena {!release}d on this domain, if
    any. *)

val release : t -> unit
(** Zero the arena and keep its buffer for the next {!create} on this
    domain, unless the arena has grown past the size a VM run reaches
    (512 KB); a larger buffer is left to the OCaml GC.  Every later
    access to the released arena, growth included, raises {!Fault}.
    Releasing twice is a no-op. *)

val limit : t -> int
(** Highest valid address + 1. *)

val grow_pages : t -> int -> int
(** [grow_pages t n] reserves [n] fresh zeroed pages and returns their
    starting address.  @raise Fault on a released arena. *)

val in_bounds : t -> int -> int -> bool
(** [in_bounds t addr len]: does [addr, addr+len)] lie inside the arena
    (and off the null page)? *)

val load : t -> width:int -> int -> int
(** [load t ~width addr] reads a little-endian value of [width] bytes
    (1, 2, 4 or 8), sign-extended.  @raise Fault on out-of-arena access. *)

val store : t -> width:int -> int -> int -> unit
(** [store t ~width addr v] writes the low [width] bytes of [v]. *)

val load_word : t -> int -> int
(** [load t ~width:8]. *)

val store_word : t -> int -> int -> unit
(** [store t ~width:8]. *)

val fill : t -> int -> int -> char -> unit
(** [fill t addr len c] sets [len] bytes to [c] (poisoning, [memset]). *)

val blit : t -> src:int -> dst:int -> int -> unit
(** Byte copy between two in-arena ranges ([memcpy]/[memmove]). *)

val load_cstring : t -> int -> string
(** Read a NUL-terminated C string starting at the address. *)

val store_cstring : t -> int -> string -> unit
(** Write the string plus a terminating NUL. *)
