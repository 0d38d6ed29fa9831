(** Pretty-printer: AST back to C source.

    Used for the C-to-C output of the preprocessor and for parser round-trip
    tests.  Parenthesization is driven by operator precedence so the output
    re-parses to the same tree. *)

open Format

(* Precedence levels, higher binds tighter (C standard ordering). *)
let prec_comma = 1
let prec_assign = 2
let prec_cond = 3

let binop_prec = function
  | Ast.LogOr -> 4
  | Ast.LogAnd -> 5
  | Ast.BitOr -> 6
  | Ast.BitXor -> 7
  | Ast.BitAnd -> 8
  | Ast.Eq | Ast.Ne -> 9
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> 10
  | Ast.Shl | Ast.Shr -> 11
  | Ast.Add | Ast.Sub -> 12
  | Ast.Mul | Ast.Div | Ast.Mod -> 13

let prec_unary = 14
let prec_postfix = 15
let prec_primary = 16

let escape_char c =
  match c with
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | '\000' -> "\\0"
  | '\\' -> "\\\\"
  | '\'' -> "\\'"
  | '"' -> "\\\""
  | c when c >= ' ' && c <= '~' -> String.make 1 c
  | c -> Printf.sprintf "\\%03o" (Char.code c)

let escape_string s =
  String.to_seq s |> Seq.map escape_char |> List.of_seq |> String.concat ""

(** Print a type with an embedded declarator name (C inside-out syntax). *)
let rec pp_decl_ty fmt (ty, name) =
  match ty with
  | Ctype.Array (elt, n) ->
      let dims =
        match n with Some n -> Printf.sprintf "[%d]" n | None -> "[]"
      in
      pp_decl_ty fmt (elt, name ^ dims)
  | Ctype.Ptr t -> pp_decl_ty fmt (t, "*" ^ name)
  | base -> fprintf fmt "%s %s" (Ctype.to_string base) name

let pp_cast_ty fmt ty = fprintf fmt "%s" (Ctype.to_string ty)

let rec pp_expr_prec fmt (e : Ast.expr) ctx =
  let p = expr_prec e in
  if p < ctx then fprintf fmt "(%a)" pp_inner e else pp_inner fmt e

and expr_prec (e : Ast.expr) =
  match e.edesc with
  | Ast.IntLit _ | Ast.CharLit _ | Ast.StrLit _ | Ast.FloatLit _ | Ast.Var _ ->
      prec_primary
  | Ast.Call _ | Ast.RuntimeCall _ | Ast.KeepLive _ | Ast.Index _
  | Ast.Field _ | Ast.Arrow _
  | Ast.Incr ((Ast.PostIncr | Ast.PostDecr), _) ->
      prec_postfix
  | Ast.Unop _ | Ast.Deref _ | Ast.AddrOf _ | Ast.Cast _ | Ast.SizeofType _
  | Ast.SizeofExpr _
  | Ast.Incr ((Ast.PreIncr | Ast.PreDecr), _) ->
      prec_unary
  | Ast.Binop (op, _, _) -> binop_prec op
  | Ast.Cond _ -> prec_cond
  | Ast.Assign _ | Ast.OpAssign _ -> prec_assign
  | Ast.Comma _ -> prec_comma

and pp_inner fmt (e : Ast.expr) =
  match e.edesc with
  | Ast.IntLit n -> fprintf fmt "%d" n
  | Ast.CharLit c -> fprintf fmt "'%s'" (escape_char c)
  | Ast.StrLit s -> fprintf fmt "\"%s\"" (escape_string s)
  | Ast.FloatLit f -> fprintf fmt "%g" f
  | Ast.Var v -> pp_print_string fmt v
  | Ast.Unop (op, a) ->
      fprintf fmt "%s%a" (Ast.unop_to_string op)
        (fun fmt a -> pp_expr_prec fmt a prec_unary)
        a
  | Ast.Binop (op, a, b) ->
      let p = binop_prec op in
      fprintf fmt "%a %s %a"
        (fun fmt a -> pp_expr_prec fmt a p)
        a (Ast.binop_to_string op)
        (fun fmt b -> pp_expr_prec fmt b (p + 1))
        b
  | Ast.Assign (l, r) ->
      fprintf fmt "%a = %a"
        (fun fmt l -> pp_expr_prec fmt l prec_unary)
        l
        (fun fmt r -> pp_expr_prec fmt r prec_assign)
        r
  | Ast.OpAssign (op, l, r) ->
      fprintf fmt "%a %s= %a"
        (fun fmt l -> pp_expr_prec fmt l prec_unary)
        l (Ast.binop_to_string op)
        (fun fmt r -> pp_expr_prec fmt r prec_assign)
        r
  | Ast.Incr (Ast.PreIncr, a) ->
      fprintf fmt "++%a" (fun fmt a -> pp_expr_prec fmt a prec_unary) a
  | Ast.Incr (Ast.PreDecr, a) ->
      fprintf fmt "--%a" (fun fmt a -> pp_expr_prec fmt a prec_unary) a
  | Ast.Incr (Ast.PostIncr, a) ->
      fprintf fmt "%a++" (fun fmt a -> pp_expr_prec fmt a prec_postfix) a
  | Ast.Incr (Ast.PostDecr, a) ->
      fprintf fmt "%a--" (fun fmt a -> pp_expr_prec fmt a prec_postfix) a
  | Ast.Deref a ->
      fprintf fmt "*%a" (fun fmt a -> pp_expr_prec fmt a prec_unary) a
  | Ast.AddrOf a ->
      fprintf fmt "&%a" (fun fmt a -> pp_expr_prec fmt a prec_unary) a
  | Ast.Index (a, i) ->
      fprintf fmt "%a[%a]"
        (fun fmt a -> pp_expr_prec fmt a prec_postfix)
        a
        (fun fmt i -> pp_expr_prec fmt i 0)
        i
  | Ast.Field (a, f) ->
      fprintf fmt "%a.%s" (fun fmt a -> pp_expr_prec fmt a prec_postfix) a f
  | Ast.Arrow (a, f) ->
      fprintf fmt "%a->%s" (fun fmt a -> pp_expr_prec fmt a prec_postfix) a f
  | Ast.Call (f, args) -> pp_call fmt f args
  | Ast.RuntimeCall (f, args) -> pp_call fmt f args
  | Ast.Cast (ty, a) ->
      fprintf fmt "(%a)%a" pp_cast_ty ty
        (fun fmt a -> pp_expr_prec fmt a prec_unary)
        a
  | Ast.Cond (c, a, b) ->
      fprintf fmt "%a ? %a : %a"
        (fun fmt c -> pp_expr_prec fmt c (prec_cond + 1))
        c
        (fun fmt a -> pp_expr_prec fmt a prec_assign)
        a
        (fun fmt b -> pp_expr_prec fmt b prec_cond)
        b
  | Ast.Comma (a, b) ->
      fprintf fmt "%a, %a"
        (fun fmt a -> pp_expr_prec fmt a prec_assign)
        a
        (fun fmt b -> pp_expr_prec fmt b prec_comma)
        b
  | Ast.SizeofType ty -> fprintf fmt "sizeof(%a)" pp_cast_ty ty
  | Ast.SizeofExpr a ->
      fprintf fmt "sizeof %a" (fun fmt a -> pp_expr_prec fmt a prec_unary) a
  | Ast.KeepLive (a, Some b) ->
      fprintf fmt "KEEP_LIVE(%a, %a)"
        (fun fmt a -> pp_expr_prec fmt a prec_assign)
        a
        (fun fmt b -> pp_expr_prec fmt b prec_assign)
        b
  | Ast.KeepLive (a, None) ->
      fprintf fmt "KEEP_LIVE(%a)"
        (fun fmt a -> pp_expr_prec fmt a prec_assign)
        a

and pp_call fmt f args =
  fprintf fmt "%s(%a)" f
    (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_init)
    args

(* a position the comma operator cannot occupy unparenthesized: an
   argument or an initializer *)
and pp_init fmt e = pp_expr_prec fmt e prec_assign

let pp_expr fmt e = pp_expr_prec fmt e 0

let expr_to_string e = asprintf "%a" pp_expr e

let init_to_string e = asprintf "%a" pp_init e

let rec pp_stmt fmt (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Sexpr e -> fprintf fmt "@[<hv 2>%a;@]" pp_expr e
  | Ast.Sdecl d -> pp_decl fmt d
  | Ast.Sif (c, a, None) ->
      fprintf fmt "@[<v 2>if (%a)@ %a@]" pp_expr c pp_stmt a
  | Ast.Sif (c, a, Some b) ->
      fprintf fmt "@[<v 2>if (%a)@ %a@]@ @[<v 2>else@ %a@]" pp_expr c pp_stmt a
        pp_stmt b
  | Ast.Swhile (c, b) ->
      fprintf fmt "@[<v 2>while (%a)@ %a@]" pp_expr c pp_stmt b
  | Ast.Sdowhile (b, c) ->
      fprintf fmt "@[<v 2>do@ %a@]@ while (%a);" pp_stmt b pp_expr c
  | Ast.Sfor (init, cond, step, b) ->
      let pp_opt fmt = function
        | Some e -> pp_expr fmt e
        | None -> ()
      in
      fprintf fmt "@[<v 2>for (%a; %a; %a)@ %a@]" pp_opt init pp_opt cond
        pp_opt step pp_stmt b
  | Ast.Sreturn (Some e) -> fprintf fmt "return %a;" pp_expr e
  | Ast.Sreturn None -> fprintf fmt "return;"
  | Ast.Sbreak -> fprintf fmt "break;"
  | Ast.Scontinue -> fprintf fmt "continue;"
  | Ast.Sempty -> fprintf fmt ";"
  | Ast.Sblock ss ->
      fprintf fmt "@[<v 2>{@ %a@]@ }"
        (pp_print_list ~pp_sep:pp_print_space pp_stmt)
        ss

and pp_decl fmt (d : Ast.decl) =
  match d.d_init with
  | None -> fprintf fmt "%a;" pp_decl_ty (d.d_ty, d.d_name)
  | Some e -> fprintf fmt "%a = %a;" pp_decl_ty (d.d_ty, d.d_name) pp_init e

let pp_func fmt (f : Ast.func) =
  let pp_params fmt = function
    | [] -> pp_print_string fmt "void"
    | ps ->
        pp_print_list
          ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
          (fun fmt (name, ty) -> pp_decl_ty fmt (ty, name))
          fmt ps
  in
  fprintf fmt "@[<v>%a(%a%s)@ %a@]"
    pp_decl_ty
    (f.Ast.f_ret, f.Ast.f_name)
    pp_params f.Ast.f_params
    (if f.Ast.f_varargs then ", ..." else "")
    pp_stmt f.Ast.f_body

let pp_global fmt = function
  | Ast.Gfunc f -> pp_func fmt f
  | Ast.Gvar d -> pp_decl fmt d
  | Ast.Gstruct (tag, is_union, fields) ->
      fprintf fmt "@[<v 2>%s %s {@ %a@]@ };"
        (if is_union then "union" else "struct")
        tag
        (pp_print_list ~pp_sep:pp_print_space (fun fmt (name, ty) ->
             fprintf fmt "%a;" pp_decl_ty (ty, name)))
        fields
  | Ast.Gproto (name, ret, params, varargs) ->
      fprintf fmt "%a(%a%s);" pp_decl_ty (ret, name)
        (pp_print_list
           ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
           (fun fmt (n, ty) -> pp_decl_ty fmt (ty, n)))
        params
        (if varargs then ", ..." else "")

let pp_program fmt (p : Ast.program) =
  fprintf fmt "@[<v>%a@]@."
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "@ @ ") pp_global)
    p.Ast.prog_globals

let program_to_string p = asprintf "%a" pp_program p

let stmt_to_string s = asprintf "@[<v>%a@]" pp_stmt s
