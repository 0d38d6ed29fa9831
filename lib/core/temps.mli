(** Fresh temporary variables for the normalizer and annotator, with
    collected declarations spliced into the function body. *)

type t

val in_program : Csyntax.Ast.program -> Csyntax.Ast.func -> t
(** [in_program p f] is [f]'s generator.  Its temporaries [__tN] number
    past every [__tN] that [f] can see: [p]'s globals, [f]'s parameters
    and locals, and temporaries an earlier pass declared.  Apply it to [p]
    once and the result to each function: the globals are scanned once,
    each function's declarations once. *)

val fresh : t -> Csyntax.Ctype.t -> string
(** A fresh temporary of the given type; remembers the declaration. *)

val splice_decls : t -> Csyntax.Ast.stmt -> Csyntax.Ast.stmt
(** Prepend the collected declarations to a function body. *)
