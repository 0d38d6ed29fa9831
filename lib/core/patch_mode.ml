(** Patch-based emission: the annotated program as edits to the original
    source text.

    This is the output discipline of the paper's implementation: "Our
    preprocessor maintains a copy of the input file ... In the process it
    generates a list of insertions and deletions, sorted by character
    position in the original source string.  After parsing is complete,
    the insertions and deletions are applied to the original source."

    {!Annotate} decides every insertion; this module only emits.  It walks
    the parsed and the annotated function bodies in lockstep —
    {!Normalize}, {!Annotate} and {!Loop_heuristic} keep statement shapes,
    adding only the leading temporary declarations, which carry
    [Loc.dummy] — and replaces the text of each top-level expression whose
    printed form changed by the annotated expression's.  The temporary
    declarations go after the body's opening brace, on its line.  Text
    that was not annotated keeps its formatting and comments. *)

open Csyntax

let fail what = invalid_arg ("Patch_mode: " ^ what)

(* replace [o]'s source text by [a], printed by [print], when the two
   expressions differ *)
let expr patch print (o : Ast.expr) (a : Ast.expr) =
  if Pretty.expr_to_string o <> Pretty.expr_to_string a then begin
    if not (Ast.has_span o) then fail "a changed expression has no source span";
    let offset = o.Ast.eloc.Loc.offset in
    Patch.replace patch ~offset ~len:(o.Ast.eend - offset) (print a)
  end

let both f o a =
  match (o, a) with
  | Some o, Some a -> f o a
  | None, None -> ()
  | _ -> fail "statement shapes differ"

let init patch (o : Ast.decl) (a : Ast.decl) =
  both (expr patch Pretty.init_to_string) o.Ast.d_init a.Ast.d_init

let rec stmt patch (o : Ast.stmt) (a : Ast.stmt) =
  let e = expr patch Pretty.expr_to_string in
  let s = stmt patch in
  match (o.Ast.sdesc, a.Ast.sdesc) with
  | Ast.Sexpr x, Ast.Sexpr y -> e x y
  | Ast.Sdecl d, Ast.Sdecl d' -> init patch d d'
  | Ast.Sif (c, t, f), Ast.Sif (c', t', f') ->
      e c c';
      s t t';
      both s f f'
  | Ast.Swhile (c, b), Ast.Swhile (c', b') ->
      e c c';
      s b b'
  | Ast.Sdowhile (b, c), Ast.Sdowhile (b', c') ->
      s b b';
      e c c'
  | Ast.Sfor (i, c, st, b), Ast.Sfor (i', c', st', b') ->
      both e i i';
      both e c c';
      both e st st';
      s b b'
  | Ast.Sreturn x, Ast.Sreturn y -> both e x y
  | Ast.Sblock ss, Ast.Sblock ss' when List.compare_lengths ss ss' = 0 ->
      List.iter2 s ss ss'
  | Ast.Sbreak, Ast.Sbreak | Ast.Scontinue, Ast.Scontinue | Ast.Sempty, Ast.Sempty
    ->
      ()
  | _ -> fail "statement shapes differ"

let func patch (o : Ast.func) (a : Ast.func) =
  let body = o.Ast.f_body in
  match a.Ast.f_body.Ast.sdesc with
  | Ast.Sblock ss when not (Loc.is_dummy body.Ast.sloc) ->
      let rec split temps = function
        | ({ Ast.sdesc = Ast.Sdecl _; sloc } as d) :: rest when Loc.is_dummy sloc ->
            split (d :: temps) rest
        | rest -> (List.rev temps, rest)
      in
      let temps, rest = split [] ss in
      if temps <> [] then
        Patch.insert patch ~offset:(body.Ast.sloc.Loc.offset + 1)
          (String.concat "" (List.map (fun d -> " " ^ Pretty.stmt_to_string d) temps));
      stmt patch body { a.Ast.f_body with Ast.sdesc = Ast.Sblock rest }
  | _ -> fail "a function body has no source span"

(** [emit ~source ~original annotated]: [source]'s text with the changes
    that took the program [original], parsed from [source], to
    [annotated].  @raise Invalid_argument if [annotated] does not keep
    [original]'s statement shapes, or changes an expression that has no
    source span. *)
let emit ~source ~(original : Ast.program) (annotated : Ast.program) : string =
  let patch = Patch.create () in
  let global o a =
    match (o, a) with
    | Ast.Gfunc f, Ast.Gfunc g -> func patch f g
    | Ast.Gvar d, Ast.Gvar d' -> init patch d d'
    | Ast.Gstruct _, Ast.Gstruct _ | Ast.Gproto _, Ast.Gproto _ -> ()
    | _ -> fail "global shapes differ"
  in
  let os = original.Ast.prog_globals and as_ = annotated.Ast.prog_globals in
  if List.compare_lengths os as_ <> 0 then fail "global shapes differ";
  List.iter2 global os as_;
  Patch.apply patch source
