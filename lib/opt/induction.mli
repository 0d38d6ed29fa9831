(** Induction-variable strength reduction: rewrite [t := i*w; ld [a + t]]
    loops to a moving pointer — one of the paper's named sources of
    disguised pointers.  Annotated code never matches the pattern (its
    loads go through [Opaque] results), which is the point. *)

val run : Ir.Instr.func -> unit
