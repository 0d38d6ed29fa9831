(** Abstract syntax for the mini-C subset.

    Expressions carry a mutable [ety] filled in by {!Typecheck}, and the
    location of the original source text so that the transformation backend
    can patch the source in place.  The two "synthetic" constructors
    [KeepLive] and [RuntimeCall] are introduced by the annotator (the
    paper's KEEP_LIVE primitive and the checked-mode [GC_same_obj]-style
    calls respectively).  [RuntimeCall] never comes out of the parser;
    [KeepLive] does, so the preprocessor's own output re-parses and builds
    unannotated (annotating such input again is a source error). *)

type unop =
  | Neg  (** -e *)
  | Not  (** !e *)
  | BitNot  (** ~e *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | BitAnd
  | BitXor
  | BitOr
  | LogAnd
  | LogOr

type incr_kind = PreIncr | PreDecr | PostIncr | PostDecr

type expr = {
  edesc : expr_desc;
  eloc : Loc.t;
  mutable eend : int;
      (** source offset one past the expression's last token ([-1] for
          synthesized nodes); with [eloc.offset] this delimits the original
          text for the patch-based emitter *)
  mutable ety : Ctype.t option;  (** filled in by the type checker *)
}

and expr_desc =
  | IntLit of int
  | CharLit of char
  | StrLit of string
  | FloatLit of float
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr  (** lhs = rhs *)
  | OpAssign of binop * expr * expr  (** lhs op= rhs *)
  | Incr of incr_kind * expr
  | Deref of expr  (** *e *)
  | AddrOf of expr  (** &e *)
  | Index of expr * expr  (** e1[e2] *)
  | Field of expr * string  (** e.x *)
  | Arrow of expr * string  (** e->x *)
  | Call of string * expr list  (** direct calls only *)
  | Cast of Ctype.t * expr
  | Cond of expr * expr * expr  (** e1 ? e2 : e3 *)
  | Comma of expr * expr
  | SizeofType of Ctype.t
  | SizeofExpr of expr
  | KeepLive of expr * expr option
      (** KEEP_LIVE(e, base); [None] base means BASE(e) was NIL and only
          opacity is required (used for allocation results) *)
  | RuntimeCall of string * expr list
      (** checked-mode runtime calls: GC_same_obj, GC_pre_incr, ... *)

type stmt = { sdesc : stmt_desc; sloc : Loc.t }

and stmt_desc =
  | Sexpr of expr
  | Sdecl of decl
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdowhile of stmt * expr
  | Sfor of expr option * expr option * expr option * stmt
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list
  | Sempty

and decl = {
  d_name : string;
  d_ty : Ctype.t;
  d_init : expr option;
  d_loc : Loc.t;
}

type func = {
  f_name : string;
  f_ret : Ctype.t;
  f_params : (string * Ctype.t) list;
  f_varargs : bool;
  f_body : stmt;
  f_loc : Loc.t;
}

type global =
  | Gfunc of func
  | Gvar of decl
  | Gstruct of string * bool * (string * Ctype.t) list  (** tag, is_union, fields *)
  | Gproto of string * Ctype.t * (string * Ctype.t) list * bool
      (** function prototype: name, return type, params, varargs *)

type program = { prog_globals : global list; prog_env : Ctype.Env.t }

let mk_expr ?(loc = Loc.dummy) edesc =
  { edesc; eloc = loc; eend = -1; ety = None }

(** Does the node remember its original source extent? *)
let has_span e = not (Loc.is_dummy e.eloc) && e.eend > e.eloc.Loc.offset

let mk_stmt ?(loc = Loc.dummy) sdesc = { sdesc; sloc = loc }

(* Convenience constructors used by the normalizer and annotator. *)

let evar ?loc name = mk_expr ?loc (Var name)

let eint ?loc n = mk_expr ?loc (IntLit n)

let eassign ?loc lhs rhs = mk_expr ?loc (Assign (lhs, rhs))

let ecomma ?loc a b = mk_expr ?loc (Comma (a, b))

let ederef ?loc e = mk_expr ?loc (Deref e)

let eaddrof ?loc e = mk_expr ?loc (AddrOf e)

(** [with_ty ty e] sets the type annotation, returning [e]. *)
let with_ty ty e =
  e.ety <- Some ty;
  e

let typ e =
  match e.ety with
  | Some t -> t
  | None -> invalid_arg "Ast.typ: expression not type-checked"

(** Type of [e] after array/function decay (its r-value type). *)
let rtyp e = Ctype.decay (typ e)

let is_pointer_valued e = Ctype.is_pointer (rtyp e)

(** The variable whose own storage [&lv] addresses, if any: the root of a
    chain of fields, casts and subscripts of array-typed values.  A
    dereference, an arrow or a subscript of a pointer reaches memory
    through a value, so [&p\[i\]] for a pointer [p] addresses p's target,
    not p. *)
let rec addressed_var lv =
  match lv.edesc with
  | Var v -> Some v
  | Field (b, _) | Cast (_, b) -> addressed_var b
  | Index (b, _) -> (
      match b.ety with Some (Ctype.Array _) -> addressed_var b | _ -> None)
  | _ -> None

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | BitAnd -> "&"
  | BitXor -> "^"
  | BitOr -> "|"
  | LogAnd -> "&&"
  | LogOr -> "||"

let unop_to_string = function Neg -> "-" | Not -> "!" | BitNot -> "~"

(** Fold over all sub-expressions of [e], outermost first. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  let g = fold_expr f in
  match e.edesc with
  | IntLit _ | CharLit _ | StrLit _ | FloatLit _ | Var _ | SizeofType _ -> acc
  | Unop (_, a) | Deref a | AddrOf a | Field (a, _) | Arrow (a, _)
  | Cast (_, a) | SizeofExpr a | Incr (_, a) ->
      g acc a
  | Binop (_, a, b) | Assign (a, b) | OpAssign (_, a, b) | Index (a, b)
  | Comma (a, b) ->
      g (g acc a) b
  | Cond (a, b, c) -> g (g (g acc a) b) c
  | Call (_, args) | RuntimeCall (_, args) -> List.fold_left g acc args
  | KeepLive (a, Some b) -> g (g acc a) b
  | KeepLive (a, None) -> g acc a

(** Iterate [f] over every statement in a function body, recursing into
    nested blocks and loop bodies. *)
let rec iter_stmts f s =
  f s;
  match s.sdesc with
  | Sexpr _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue | Sempty -> ()
  | Sif (_, a, b) ->
      iter_stmts f a;
      Option.iter (iter_stmts f) b
  | Swhile (_, b) | Sdowhile (b, _) | Sfor (_, _, _, b) -> iter_stmts f b
  | Sblock ss -> List.iter (iter_stmts f) ss

(** Fold [f] over every expression appearing in statement [s] (including
    sub-expressions). *)
let fold_stmt_exprs f acc s =
  let acc = ref acc in
  let on_expr e = acc := fold_expr f !acc e in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Sexpr e -> on_expr e
      | Sdecl d -> Option.iter on_expr d.d_init
      | Sif (c, _, _) | Swhile (c, _) | Sdowhile (_, c) -> on_expr c
      | Sfor (a, b, c, _) ->
          List.iter (Option.iter on_expr) [ a; b; c ]
      | Sreturn e -> Option.iter on_expr e
      | Sbreak | Scontinue | Sblock _ | Sempty -> ())
    s;
  !acc
