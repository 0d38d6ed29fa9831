(** Scoped symbol tables.

    One hash table maps each name to its bindings, innermost first, each
    tagged with the depth of the scope that made it; a per-scope log lists
    the names that scope bound.  Lookup is one probe at any depth, and
    leaving a scope removes exactly the names it logged, which uncovers the
    outer bindings they shadowed, like C block scoping. *)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type 'a binding = { depth : int; mutable value : 'a }

type 'a t = {
  table : 'a binding Names.t;
  mutable depth : int;  (** 0 is the outermost scope *)
  mutable added : string list;  (** names bound by the innermost scope *)
  mutable outer : string list list;  (** the logs of the enclosing scopes *)
}

let create () = { table = Names.create 64; depth = 0; added = []; outer = [] }

let enter_scope t =
  t.outer <- t.added :: t.outer;
  t.added <- [];
  t.depth <- t.depth + 1

let exit_scope t =
  match t.outer with
  | [] -> invalid_arg "Symtab.exit_scope: no scope to exit"
  | added :: outer ->
      List.iter (Names.remove t.table) t.added;
      t.added <- added;
      t.outer <- outer;
      t.depth <- t.depth - 1

(** Add to the innermost scope, shadowing any outer binding. *)
let add t name v =
  match Names.find_opt t.table name with
  | Some b when b.depth = t.depth -> b.value <- v
  | Some _ | None ->
      Names.add t.table name { depth = t.depth; value = v };
      t.added <- name :: t.added

let find t name =
  match Names.find_opt t.table name with
  | Some b -> Some b.value
  | None -> None

let mem t name = Names.mem t.table name

(** Is [name] bound in the innermost scope? *)
let mem_innermost t name =
  match Names.find_opt t.table name with
  | Some b -> b.depth = t.depth
  | None -> false

(** Run [f] inside a fresh scope, restoring the previous scopes on exit even
    if [f] raises. *)
let in_scope t f =
  enter_scope t;
  Fun.protect ~finally:(fun () -> exit_scope t) f
