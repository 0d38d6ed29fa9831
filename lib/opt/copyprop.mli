(** Block-local copy and constant propagation.  [Opaque] definitions are
    never propagated: KEEP_LIVE results must remain explicitly stored. *)

val run : Ir.Instr.func -> unit
