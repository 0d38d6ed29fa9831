(** Normalization: introduce temporaries for generating expressions.

    Establishes the paper's assumed form — generating expressions (pointer
    dereferences, calls, conditionals) "occur as the right side of an
    assignment to a local variable that is not assigned elsewhere in the
    same expression" — by rewriting them to [(t = e)] wherever
    {!Base_rules.base} would otherwise return [Unnamed].  Also performs
    the paper's [&*e -> e] simplification. *)

exception Already_annotated of Csyntax.Loc.t
(** The input holds a [KEEP_LIVE] (at this location): it is the
    preprocessor's own output.  Such source compiles unannotated (the
    base and debug builds); annotating it again is a source error. *)

val norm_program : Csyntax.Ast.program -> Csyntax.Ast.program
(** Normalize a type-annotated program; the result is re-type-checked. *)
