(** Normalization: introduce temporaries for generating expressions.

    The paper assumes that pointer dereferences, function calls and
    conditional expressions — the {e generating} expressions — "either
    return nonpointers or occur as the right side of an assignment to a
    local variable that is not assigned elsewhere in the same expression",
    so that their results have names when BASE is queried.  This pass
    establishes that invariant: wherever a generating pointer-valued
    expression would be consumed by pointer arithmetic or address
    computation (i.e. wherever {!Base_rules.base} would return [Unnamed]),
    it is replaced by [(t = e)] for a fresh local [t].  Freshness guarantees
    the paper's "not assigned elsewhere in the same expression" side
    condition.

    The pass also performs the paper's [&*e -> e] simplification.

    Requires a type-annotated AST; produces an AST whose new nodes carry
    types, so it can be composed directly with {!Annotate}. *)

open Csyntax

exception Already_annotated of Loc.t

let mk desc ty =
  let e = Ast.mk_expr desc in
  e.Ast.ety <- Some ty;
  e

(** Rewrite [e] so that its value is named by a variable: wrap the
    generating tail of [e] in an assignment to a fresh temporary. *)
let rec name_value temps (e : Ast.expr) : Ast.expr =
  match Base_rules.base e with
  | Base_rules.Nil | Base_rules.Var _ -> e
  | Base_rules.Unnamed -> (
      match e.Ast.edesc with
      | Ast.Comma (a, b) ->
          mk (Ast.Comma (a, name_value temps b)) (Ast.rtyp e)
      | Ast.Cast (ty, inner) ->
          mk (Ast.Cast (ty, name_value temps inner)) ty
      | Ast.Assign (lv, rhs) ->
          (* complex lvalue: the value is the stored one; name the source *)
          mk (Ast.Assign (lv, name_value temps rhs)) (Ast.rtyp e)
      | _ ->
          let ty = Ast.rtyp e in
          let t = Temps.fresh temps ty in
          let tvar = mk (Ast.Var t) ty in
          mk (Ast.Assign (tvar, e)) ty)

let needs_name e = Ast.is_pointer_valued e && Base_rules.base e = Base_rules.Unnamed

(** [&*e] simplifies to [e]; [&a[i]] and [&p->f] are address arithmetic with
    no access, which is why AddrOf arguments need no naming of their own —
    the chain rules below see through them. *)
let simplify_addrof (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.AddrOf inner -> (
      match inner.Ast.edesc with
      | Ast.Deref x -> x
      | _ -> e)
  | _ -> e

let rec norm_expr temps ~used (e : Ast.expr) : Ast.expr =
  let ty = Ast.typ e in
  let remk desc = mk desc ty in
  let rv x = norm_expr temps ~used:true x in
  let e =
    match e.Ast.edesc with
    | Ast.IntLit _ | Ast.CharLit _ | Ast.StrLit _ | Ast.FloatLit _ | Ast.Var _
    | Ast.SizeofType _ ->
        e
    | Ast.SizeofExpr _ -> e (* operand is not evaluated *)
    | Ast.Unop (op, a) -> remk (Ast.Unop (op, rv a))
    | Ast.Binop (op, a, b) ->
        let a = rv a and b = rv b in
        let a, b =
          match op with
          | Ast.Add | Ast.Sub when Ctype.is_pointer (Ctype.decay ty) ->
              (* pointer arithmetic: BASE of the pointer operand is needed *)
              let fix x =
                if needs_name x then name_value temps x else x
              in
              (fix a, fix b)
          | _ -> (a, b)
        in
        remk (Ast.Binop (op, a, b))
    | Ast.Assign (lv, rhs) ->
        let lv = norm_lvalue temps lv and rhs = rv rhs in
        let rhs =
          (* assignment to a complex lvalue whose value is used further *)
          match lv.Ast.edesc with
          | Ast.Var _ -> rhs
          | _ -> if used && needs_name rhs then name_value temps rhs else rhs
        in
        remk (Ast.Assign (lv, rhs))
    | Ast.OpAssign (op, lv, rhs) ->
        remk (Ast.OpAssign (op, norm_lvalue temps lv, rv rhs))
    | Ast.Incr (k, lv) -> remk (Ast.Incr (k, norm_lvalue temps lv))
    | Ast.Deref a -> remk (Ast.Deref (rv a))
    | Ast.AddrOf a ->
        simplify_addrof (remk (Ast.AddrOf (norm_lvalue temps a)))
    | Ast.Index (a, i) ->
        let a = rv a and i = rv i in
        let fix x =
          if Ast.is_pointer_valued x && needs_name x then name_value temps x
          else x
        in
        remk (Ast.Index (fix a, fix i))
    | Ast.Field (b, f) -> remk (Ast.Field (norm_field_base temps b, f))
    | Ast.Arrow (p, f) ->
        let p = rv p in
        let p = if needs_name p then name_value temps p else p in
        remk (Ast.Arrow (p, f))
    | Ast.Call (fn, args) -> remk (Ast.Call (fn, List.map rv args))
    | Ast.Cast (cty, a) -> remk (Ast.Cast (cty, rv a))
    | Ast.Cond (c, a, b) -> remk (Ast.Cond (rv c, rv a, rv b))
    | Ast.Comma (a, b) ->
        remk (Ast.Comma (norm_expr temps ~used:false a, norm_expr temps ~used b))
    | Ast.KeepLive (_, _) | Ast.RuntimeCall (_, _) ->
        raise (Already_annotated e.Ast.eloc)
  in
  e

(** Lvalues: recurse into the chain but keep its shape; the only fix needed
    is naming a generating pointer under [Field (Deref g, _)] chains and the
    Index/Arrow bases handled by [norm_expr]. *)
and norm_lvalue temps (lv : Ast.expr) : Ast.expr =
  match lv.Ast.edesc with
  | Ast.Var _ -> lv
  | Ast.Deref a ->
      let a = norm_expr temps ~used:true a in
      mk (Ast.Deref a) (Ast.typ lv)
  | Ast.Index (_, _) | Ast.Arrow (_, _) | Ast.Field (_, _) | Ast.Cast (_, _)
    ->
      norm_expr temps ~used:true lv
  | _ -> norm_expr temps ~used:true lv

(** The base of a [.] field access: an lvalue chain.  If it is a dereference
    of a generating pointer, as in [( *f(x) ).fld], name the pointer so
    BASEADDR has a variable to return. *)
and norm_field_base temps (b : Ast.expr) : Ast.expr =
  match b.Ast.edesc with
  | Ast.Deref a ->
      let a = norm_expr temps ~used:true a in
      let a = if needs_name a then name_value temps a else a in
      mk (Ast.Deref a) (Ast.typ b)
  | Ast.Field (b2, f) -> mk (Ast.Field (norm_field_base temps b2, f)) (Ast.typ b)
  | _ -> norm_lvalue temps b

let rec norm_stmt temps (s : Ast.stmt) : Ast.stmt =
  let remk sdesc = Ast.mk_stmt ~loc:s.Ast.sloc sdesc in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> remk (Ast.Sexpr (norm_expr temps ~used:false e))
  | Ast.Sdecl d ->
      remk
        (Ast.Sdecl
           {
             d with
             Ast.d_init =
               Option.map (norm_expr temps ~used:true) d.Ast.d_init;
           })
  | Ast.Sif (c, a, b) ->
      remk
        (Ast.Sif
           ( norm_expr temps ~used:true c,
             norm_stmt temps a,
             Option.map (norm_stmt temps) b ))
  | Ast.Swhile (c, b) ->
      remk (Ast.Swhile (norm_expr temps ~used:true c, norm_stmt temps b))
  | Ast.Sdowhile (b, c) ->
      remk (Ast.Sdowhile (norm_stmt temps b, norm_expr temps ~used:true c))
  | Ast.Sfor (i, c, st, b) ->
      remk
        (Ast.Sfor
           ( Option.map (norm_expr temps ~used:false) i,
             Option.map (norm_expr temps ~used:true) c,
             Option.map (norm_expr temps ~used:false) st,
             norm_stmt temps b ))
  | Ast.Sreturn e ->
      remk (Ast.Sreturn (Option.map (norm_expr temps ~used:true) e))
  | Ast.Sbreak | Ast.Scontinue | Ast.Sempty -> s
  | Ast.Sblock ss -> remk (Ast.Sblock (List.map (norm_stmt temps) ss))

(** Normalize a type-annotated program.  The result is re-type-checked so
    that every new node carries its type. *)
let norm_program (p : Ast.program) : Ast.program =
  let temps_of = Temps.in_program p in
  let globals =
    List.map
      (function
        | Ast.Gfunc f ->
            let temps = temps_of f in
            let body = norm_stmt temps f.Ast.f_body in
            Ast.Gfunc { f with Ast.f_body = Temps.splice_decls temps body }
        | (Ast.Gvar _ | Ast.Gstruct _ | Ast.Gproto _) as g -> g)
      p.Ast.prog_globals
  in
  let p' = { p with Ast.prog_globals = globals } in
  ignore (Typecheck.check_program p');
  p'
