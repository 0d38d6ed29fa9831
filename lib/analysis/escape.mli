(** Address-taken / escape analysis for one function.

    A variable whose address is taken can be written through memory by
    any store or call, so neither the flow-sensitive heapness nor the
    liveness client may reason about its value: both treat escaping
    variables with their most conservative answer.  Globals escape by
    definition (any callee may store heap pointers into them). *)

type t

val analyze : global:(string -> bool) -> Csyntax.Ast.func -> t

val address_taken : t -> string -> bool
(** The address of the variable itself is taken somewhere in the
    function ([&x], [&x.f], [&arr\[i\]] for an array variable — not
    [&p\[i\]] for a pointer [p], whose target, not [p], is addressed):
    the rule of {!Csyntax.Ast.addressed_var}. *)

val escapes : t -> string -> bool
(** Address-taken or global. *)

val is_param : t -> string -> bool
