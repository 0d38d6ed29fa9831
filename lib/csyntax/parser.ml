(** Recursive-descent parser for the mini-C subset.

    Expression parsing uses the classical precedence ladder (assignment ->
    conditional -> logical-or -> ... -> unary -> postfix -> primary).
    Declarators cover pointers, arrays, and function parameter lists, which
    is sufficient for the workloads; parenthesized declarators (function
    pointers) are not in the subset. *)

exception Error of string * Loc.t

(* The parser reads tokens from the lexer as it goes and holds only the
   current token and the two after it, so no token outlives the step that
   consumes it.  [with_tokens] keeps the errors those of a parser over the
   whole token stream. *)
type state = {
  lex : Lexer.cursor;
  mutable cur : Lexer.tok;
  mutable next1 : Lexer.tok;
  mutable next2 : Lexer.tok;
  mutable prev_end : int;  (** [endpos] of the token before [cur], or -1 *)
}

let cur_tok st = st.cur.t

let cur_loc st = st.cur.loc

(* Stepping past [EOF] stays on it. *)
let advance st =
  if st.cur.t != Token.EOF then begin
    st.prev_end <- st.cur.endpos;
    st.cur <- st.next1;
    st.next1 <- st.next2;
    st.next2 <- Lexer.next st.lex
  end

(* The token [n] (1 or 2) places after the current one. *)
let peek_tok st n = if n = 1 then st.next1.t else st.next2.t

let err st msg =
  raise (Error (Printf.sprintf "%s (found '%s')" msg (Token.to_string (cur_tok st)), cur_loc st))

(* Is the current token [t]?  Every token the parser tests for is a
   constant constructor, an immediate value, so physical equality answers
   as [=] would without a call to the polymorphic compare. *)
let is st (t : Token.t) = cur_tok st == t

let expect st t =
  if is st t then advance st
  else err st (Printf.sprintf "expected '%s'" (Token.to_string t))

let accept st t =
  if is st t then begin
    advance st;
    true
  end
  else false

(* Build an expression node and record its source extent: at construction
   time the parser has just consumed the node's last token. *)
let mk st loc desc =
  let e = Ast.mk_expr ~loc desc in
  e.Ast.eend <- st.prev_end;
  e

let expect_ident st =
  match cur_tok st with
  | Token.IDENT s ->
      advance st;
      s
  | _ -> err st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types and declarators                                              *)
(* ------------------------------------------------------------------ *)

let is_type_start = function
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT
  | Token.KW_LONG | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_UNSIGNED
  | Token.KW_SIGNED | Token.KW_STRUCT | Token.KW_UNION | Token.KW_CONST ->
      true
  | _ -> false

(** Parse a type specifier (the part before the declarator). *)
let rec parse_base_type st : Ctype.t =
  let rec skip_quals () =
    if accept st Token.KW_CONST then skip_quals ()
  in
  skip_quals ();
  let t =
    match cur_tok st with
    | Token.KW_VOID ->
        advance st;
        Ctype.Void
    | Token.KW_CHAR ->
        advance st;
        Ctype.Char
    | Token.KW_SHORT ->
        advance st;
        ignore (accept st Token.KW_INT);
        Ctype.Short
    | Token.KW_INT ->
        advance st;
        Ctype.Int
    | Token.KW_LONG ->
        advance st;
        ignore (accept st Token.KW_INT);
        Ctype.Long
    | Token.KW_FLOAT ->
        advance st;
        Ctype.Float
    | Token.KW_DOUBLE ->
        advance st;
        Ctype.Double
    | Token.KW_UNSIGNED | Token.KW_SIGNED ->
        (* signedness is ignored in the subset: everything is signed *)
        advance st;
        if is_type_start (cur_tok st) && not (is st Token.KW_CONST) then
          parse_base_type st
        else Ctype.Int
    | Token.KW_STRUCT ->
        advance st;
        let tag = expect_ident st in
        Ctype.Struct tag
    | Token.KW_UNION ->
        advance st;
        let tag = expect_ident st in
        Ctype.Union tag
    | _ -> err st "expected type"
  in
  skip_quals ();
  t

(** Parse the pointer stars of a declarator applied to [base]. *)
let parse_pointers st base =
  let rec loop ty =
    if accept st Token.STAR then begin
      while accept st Token.KW_CONST do
        ()
      done;
      loop (Ctype.Ptr ty)
    end
    else ty
  in
  loop base

(** Parse array suffixes [n]... applied to [ty] (innermost dimension last in
    the source, so build from the right). *)
let rec parse_array_suffix st ty =
  if accept st Token.LBRACKET then begin
    let n =
      match cur_tok st with
      | Token.INT_LIT n ->
          advance st;
          Some n
      | Token.RBRACKET -> None
      | _ -> err st "expected array length"
    in
    expect st Token.RBRACKET;
    let inner = parse_array_suffix st ty in
    Ctype.Array (inner, n)
  end
  else ty

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

(* A '(' starts a cast iff it is followed by a type keyword. *)
let starts_cast st = is st Token.LPAREN && is_type_start (peek_tok st 1)

let rec parse_expr st : Ast.expr = parse_comma st

and parse_comma st =
  let loc = cur_loc st in
  let e = parse_assign st in
  if accept st Token.COMMA then
    let rest = parse_comma st in
    mk st loc (Ast.Comma (e, rest))
  else e

and parse_assign st =
  let loc = cur_loc st in
  let lhs = parse_cond st in
  let opassign op =
    advance st;
    let rhs = parse_assign st in
    mk st loc (Ast.OpAssign (op, lhs, rhs))
  in
  match cur_tok st with
  | Token.ASSIGN ->
      advance st;
      let rhs = parse_assign st in
      mk st loc (Ast.Assign (lhs, rhs))
  | Token.PLUS_ASSIGN -> opassign Ast.Add
  | Token.MINUS_ASSIGN -> opassign Ast.Sub
  | Token.STAR_ASSIGN -> opassign Ast.Mul
  | Token.SLASH_ASSIGN -> opassign Ast.Div
  | Token.PERCENT_ASSIGN -> opassign Ast.Mod
  | Token.AMP_ASSIGN -> opassign Ast.BitAnd
  | Token.BAR_ASSIGN -> opassign Ast.BitOr
  | Token.CARET_ASSIGN -> opassign Ast.BitXor
  | Token.SHL_ASSIGN -> opassign Ast.Shl
  | Token.SHR_ASSIGN -> opassign Ast.Shr
  | _ -> lhs

and parse_cond st =
  let loc = cur_loc st in
  let c = parse_binary st 0 in
  if accept st Token.QUESTION then begin
    let a = parse_assign st in
    expect st Token.COLON;
    let b = parse_cond st in
    mk st loc (Ast.Cond (c, a, b))
  end
  else c

(* Binary operators by precedence level, loosest first. *)
and binop_of_token = function
  | Token.OROR -> Some (Ast.LogOr, 0)
  | Token.ANDAND -> Some (Ast.LogAnd, 1)
  | Token.BAR -> Some (Ast.BitOr, 2)
  | Token.CARET -> Some (Ast.BitXor, 3)
  | Token.AMP -> Some (Ast.BitAnd, 4)
  | Token.EQEQ -> Some (Ast.Eq, 5)
  | Token.NE -> Some (Ast.Ne, 5)
  | Token.LT -> Some (Ast.Lt, 6)
  | Token.GT -> Some (Ast.Gt, 6)
  | Token.LE -> Some (Ast.Le, 6)
  | Token.GE -> Some (Ast.Ge, 6)
  | Token.SHL -> Some (Ast.Shl, 7)
  | Token.SHR -> Some (Ast.Shr, 7)
  | Token.PLUS -> Some (Ast.Add, 8)
  | Token.MINUS -> Some (Ast.Sub, 8)
  | Token.STAR -> Some (Ast.Mul, 9)
  | Token.SLASH -> Some (Ast.Div, 9)
  | Token.PERCENT -> Some (Ast.Mod, 9)
  | _ -> None

and parse_binary st min_prec =
  let loc = cur_loc st in
  let lhs = ref (parse_unary st) in
  let rec loop () =
    match binop_of_token (cur_tok st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := mk st loc (Ast.Binop (op, !lhs, rhs));
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  !lhs

and parse_unary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Token.PLUSPLUS ->
      advance st;
      mk st loc (Ast.Incr (Ast.PreIncr, parse_unary st))
  | Token.MINUSMINUS ->
      advance st;
      mk st loc (Ast.Incr (Ast.PreDecr, parse_unary st))
  | Token.STAR ->
      advance st;
      mk st loc (Ast.Deref (parse_unary st))
  | Token.AMP ->
      advance st;
      mk st loc (Ast.AddrOf (parse_unary st))
  | Token.MINUS ->
      advance st;
      mk st loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Token.PLUS ->
      advance st;
      parse_unary st
  | Token.BANG ->
      advance st;
      mk st loc (Ast.Unop (Ast.Not, parse_unary st))
  | Token.TILDE ->
      advance st;
      mk st loc (Ast.Unop (Ast.BitNot, parse_unary st))
  | Token.KW_SIZEOF ->
      advance st;
      if starts_cast st then begin
        expect st Token.LPAREN;
        let base = parse_base_type st in
        let ty = parse_pointers st base in
        expect st Token.RPAREN;
        mk st loc (Ast.SizeofType ty)
      end
      else mk st loc (Ast.SizeofExpr (parse_unary st))
  | Token.LPAREN when starts_cast st ->
      expect st Token.LPAREN;
      let base = parse_base_type st in
      let ty = parse_pointers st base in
      expect st Token.RPAREN;
      mk st loc (Ast.Cast (ty, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st =
  (* chained postfix nodes all carry the start of the whole chain, so the
     patch emitter can wrap the full access text *)
  let loc = cur_loc st in
  let e = ref (parse_primary st) in
  let rec loop () =
    match cur_tok st with
    | Token.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET;
        e := mk st loc (Ast.Index (!e, idx));
        loop ()
    | Token.DOT ->
        advance st;
        let f = expect_ident st in
        e := mk st loc (Ast.Field (!e, f));
        loop ()
    | Token.ARROW ->
        advance st;
        let f = expect_ident st in
        e := mk st loc (Ast.Arrow (!e, f));
        loop ()
    | Token.PLUSPLUS ->
        advance st;
        e := mk st loc (Ast.Incr (Ast.PostIncr, !e));
        loop ()
    | Token.MINUSMINUS ->
        advance st;
        e := mk st loc (Ast.Incr (Ast.PostDecr, !e));
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Token.INT_LIT n ->
      advance st;
      mk st loc (Ast.IntLit n)
  | Token.CHAR_LIT c ->
      advance st;
      mk st loc (Ast.CharLit c)
  | Token.FLOAT_LIT f ->
      advance st;
      mk st loc (Ast.FloatLit f)
  | Token.STR_LIT s ->
      advance st;
      (* adjacent string literals concatenate *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match cur_tok st with
        | Token.STR_LIT s2 ->
            advance st;
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      mk st loc (Ast.StrLit (Buffer.contents buf))
  | Token.IDENT name ->
      advance st;
      if is st Token.LPAREN then begin
        advance st;
        let args =
          if is st Token.RPAREN then []
          else
            let rec loop acc =
              let a = parse_assign st in
              if accept st Token.COMMA then loop (a :: acc)
              else List.rev (a :: acc)
            in
            loop []
        in
        expect st Token.RPAREN;
        (* the preprocessor's own output re-parses: KEEP_LIVE is a
           primitive, not a call *)
        match (name, args) with
        | "KEEP_LIVE", [ e ] -> mk st loc (Ast.KeepLive (e, None))
        | "KEEP_LIVE", [ e; b ] -> mk st loc (Ast.KeepLive (e, Some b))
        | "KEEP_LIVE", _ -> err st "KEEP_LIVE takes one or two arguments"
        | _ -> mk st loc (Ast.Call (name, args))
      end
      else mk st loc (Ast.Var name)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | _ -> err st "expected expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt =
  let loc = cur_loc st in
  match cur_tok st with
  | Token.LBRACE ->
      advance st;
      let rec items acc =
        if is st Token.RBRACE then List.rev acc
        else items (List.rev_append (parse_block_item st) acc)
      in
      let ss = items [] in
      expect st Token.RBRACE;
      Ast.mk_stmt ~loc (Ast.Sblock ss)
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let then_ = parse_stmt st in
      let else_ = if accept st Token.KW_ELSE then Some (parse_stmt st) else None in
      Ast.mk_stmt ~loc (Ast.Sif (c, then_, else_))
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      Ast.mk_stmt ~loc (Ast.Swhile (c, parse_stmt st))
  | Token.KW_DO ->
      advance st;
      let body = parse_stmt st in
      expect st Token.KW_WHILE;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc (Ast.Sdowhile (body, c))
  | Token.KW_FOR ->
      advance st;
      expect st Token.LPAREN;
      let init =
        if is st Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      let cond =
        if is st Token.SEMI then None else Some (parse_expr st)
      in
      expect st Token.SEMI;
      let step =
        if is st Token.RPAREN then None else Some (parse_expr st)
      in
      expect st Token.RPAREN;
      Ast.mk_stmt ~loc (Ast.Sfor (init, cond, step, parse_stmt st))
  | Token.KW_RETURN ->
      advance st;
      let e = if is st Token.SEMI then None else Some (parse_expr st) in
      expect st Token.SEMI;
      Ast.mk_stmt ~loc (Ast.Sreturn e)
  | Token.KW_BREAK ->
      advance st;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc Ast.Sbreak
  | Token.KW_CONTINUE ->
      advance st;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc Ast.Scontinue
  | Token.SEMI ->
      advance st;
      Ast.mk_stmt ~loc Ast.Sempty
  | _ ->
      let e = parse_expr st in
      expect st Token.SEMI;
      Ast.mk_stmt ~loc (Ast.Sexpr e)

(** A block item: a statement, or a declaration's declarators, each one
    item of the enclosing block. *)
and parse_block_item st : Ast.stmt list =
  let loc = cur_loc st in
  if is_type_start (cur_tok st) then begin
    let base = parse_base_type st in
    let rec one_decl acc =
      let ty = parse_pointers st base in
      let name = expect_ident st in
      let ty = parse_array_suffix st ty in
      let init = if accept st Token.ASSIGN then Some (parse_assign st) else None in
      let d = { Ast.d_name = name; d_ty = ty; d_init = init; d_loc = loc } in
      let acc = Ast.mk_stmt ~loc (Ast.Sdecl d) :: acc in
      if accept st Token.COMMA then one_decl acc else List.rev acc
    in
    let decls = one_decl [] in
    expect st Token.SEMI;
    decls
  end
  else [ parse_stmt st ]

(* ------------------------------------------------------------------ *)
(* Top level                                                          *)
(* ------------------------------------------------------------------ *)

let parse_params st : (string * Ctype.t) list * bool =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then ([], false)
  else if is st Token.KW_VOID && peek_tok st 1 == Token.RPAREN then begin
    advance st;
    advance st;
    ([], false)
  end
  else begin
    let varargs = ref false in
    let rec loop acc =
      if accept st Token.ELLIPSIS then begin
        varargs := true;
        List.rev acc
      end
      else begin
        let base = parse_base_type st in
        let ty = parse_pointers st base in
        let name =
          match cur_tok st with
          | Token.IDENT s ->
              advance st;
              s
          | _ -> "" (* unnamed parameter in a prototype *)
        in
        let ty = parse_array_suffix st ty in
        (* array parameters decay to pointers *)
        let ty =
          match ty with Ctype.Array (elt, _) -> Ctype.Ptr elt | t -> t
        in
        let acc = (name, ty) :: acc in
        if accept st Token.COMMA then loop acc else List.rev acc
      end
    in
    let ps = loop [] in
    expect st Token.RPAREN;
    (ps, !varargs)
  end

let parse_global st : Ast.global list =
  let loc = cur_loc st in
  ignore (accept st Token.KW_EXTERN);
  ignore (accept st Token.KW_STATIC);
  (* struct/union definition? *)
  if
    (is st Token.KW_STRUCT || is st Token.KW_UNION)
    && peek_tok st 2 == Token.LBRACE
  then begin
    let is_union = is st Token.KW_UNION in
    advance st;
    let tag = expect_ident st in
    expect st Token.LBRACE;
    let rec fields acc =
      if is st Token.RBRACE then List.rev acc
      else begin
        let base = parse_base_type st in
        let rec one acc =
          let ty = parse_pointers st base in
          let name = expect_ident st in
          let ty = parse_array_suffix st ty in
          let acc = (name, ty) :: acc in
          if accept st Token.COMMA then one acc else acc
        in
        let acc = one acc in
        expect st Token.SEMI;
        fields acc
      end
    in
    let fs = fields [] in
    expect st Token.RBRACE;
    expect st Token.SEMI;
    [ Ast.Gstruct (tag, is_union, fs) ]
  end
  else begin
    let base = parse_base_type st in
    if accept st Token.SEMI then [] (* bare "struct s;" forward decl *)
    else begin
      let ty = parse_pointers st base in
      let name = expect_ident st in
      if is st Token.LPAREN then begin
        (* function definition or prototype *)
        let params, varargs = parse_params st in
        if is st Token.LBRACE then
          let body = parse_stmt st in
          [ Ast.Gfunc
              {
                f_name = name;
                f_ret = ty;
                f_params = params;
                f_varargs = varargs;
                f_body = body;
                f_loc = loc;
              } ]
        else begin
          expect st Token.SEMI;
          [ Ast.Gproto (name, ty, params, varargs) ]
        end
      end
      else begin
        (* global variable(s) *)
        let rec one_decl first_ty first_name acc =
          let ty = parse_array_suffix st first_ty in
          let init =
            if accept st Token.ASSIGN then Some (parse_assign st) else None
          in
          let acc =
            Ast.Gvar { d_name = first_name; d_ty = ty; d_init = init; d_loc = loc }
            :: acc
          in
          if accept st Token.COMMA then begin
            let ty = parse_pointers st base in
            let name = expect_ident st in
            one_decl ty name acc
          end
          else List.rev acc
        in
        let decls = one_decl ty name [] in
        expect st Token.SEMI;
        decls
      end
    end
  end

(* Run [parse] over the tokens of [src].  A lexical error anywhere in the
   source wins over any other error, as when the whole source was
   tokenized before parsing: when [parse] fails on anything but the lexer,
   the rest of the source is lexed, and its first lexical error, if any,
   is raised instead. *)
let with_tokens src parse =
  let lex = Lexer.cursor src in
  let cur = Lexer.next lex in
  let next1 = Lexer.next lex in
  let next2 = Lexer.next lex in
  let st = { lex; cur; next1; next2; prev_end = -1 } in
  try parse st with
  | Lexer.Error _ as e -> raise e
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      while (Lexer.next lex).t != Token.EOF do
        ()
      done;
      Printexc.raise_with_backtrace e bt

(** Parse a complete translation unit. *)
let parse_program (src : string) : Ast.program =
  with_tokens src @@ fun st ->
  let env = Ctype.Env.create () in
  let rec loop acc =
    if is st Token.EOF then List.rev acc
    else begin
      let gs = parse_global st in
      List.iter
        (function
          | Ast.Gstruct (tag, is_union, fields) ->
              Ctype.Env.add env (Ctype.make_layout env ~union:is_union tag fields)
          | Ast.Gfunc _ | Ast.Gvar _ | Ast.Gproto _ -> ())
        gs;
      loop (List.rev_append gs acc)
    end
  in
  let globals = loop [] in
  { Ast.prog_globals = globals; prog_env = env }

(** Parse a single expression (used by tests and the quickstart example). *)
let parse_expr_string (src : string) : Ast.expr =
  with_tokens src @@ fun st ->
  let e = parse_expr st in
  if not (is st Token.EOF) then err st "trailing tokens after expression";
  e
