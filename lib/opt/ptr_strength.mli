(** The pointer-disguising transformations from the paper's introduction:
    folding a constant displacement into a dead base register
    ([p -= 1000; ... p[i]]), and reusing a dead base register for a
    derived pointer.  Their safety conditions are the *sequential* ones a
    conventional compiler checks — which is precisely what makes the
    result GC-unsafe.  KEEP_LIVE annotations defeat both patterns. *)

val run : Ir.Instr.func -> unit
