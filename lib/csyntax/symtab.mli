(** Scoped symbol tables: nested scopes where the innermost binding of a
    name wins, like C block scoping.  [find], [mem] and [mem_innermost]
    cost one hash probe at any nesting depth. *)

type 'a t

val create : unit -> 'a t

val enter_scope : 'a t -> unit

val exit_scope : 'a t -> unit
(** @raise Invalid_argument when only the outermost scope remains. *)

val add : 'a t -> string -> 'a -> unit
(** Bind in the innermost scope, shadowing any outer binding. *)

val find : 'a t -> string -> 'a option

val mem : 'a t -> string -> bool

val mem_innermost : 'a t -> string -> bool

val in_scope : 'a t -> (unit -> 'b) -> 'b
(** Run inside a fresh scope, restoring on exit even on exceptions. *)
