(** Fresh temporary variables for the normalizer and annotator.

    The paper's transformation introduces temporaries ("tmp1", "tmp2",
    "tmpa", ...) to name the results of generating expressions and to expand
    increment operators.  Each transformed function gets its own generator;
    the collected declarations are spliced into the top of the function
    body.

    Temporaries are named [__tN].  A generator numbers past every [__tN]
    the function can already see — a global, a parameter, a local, or a
    temporary an earlier pass spliced in — so a temporary never shadows a
    name the program uses and the normalizer's and annotator's temporaries
    never share a name. *)

open Csyntax

type t = { mutable counter : int; mutable decls : (string * Ctype.t) list }

(* the first number past [name] when it reads as [__tN]; else 0.  Any
   overcount only skips numbers. *)
let past name =
  if String.starts_with ~prefix:"__t" name then
    match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
    | Some k -> k + 1
    | None -> 0
  else 0

(** [in_program p] scans [p]'s global names once; applied to a function
    of [p], it gives that function's generator, which also numbers past
    the function's parameters and every local it declares. *)
let in_program (p : Ast.program) : Ast.func -> t =
  let floor =
    List.fold_left
      (fun m -> function
        | Ast.Gvar { Ast.d_name = x; _ }
        | Ast.Gfunc { Ast.f_name = x; _ }
        | Ast.Gproto (x, _, _, _) ->
            max m (past x)
        | Ast.Gstruct _ -> m)
      0 p.Ast.prog_globals
  in
  fun (f : Ast.func) ->
    let counter = ref floor in
    let see x = counter := max !counter (past x) in
    List.iter (fun (x, _) -> see x) f.Ast.f_params;
    Ast.iter_stmts
      (fun s ->
        match s.Ast.sdesc with Ast.Sdecl d -> see d.Ast.d_name | _ -> ())
      f.Ast.f_body;
    { counter = !counter; decls = [] }

(** A fresh temporary of type [ty]; remembers the declaration. *)
let fresh t ty =
  let name = Printf.sprintf "__t%d" t.counter in
  t.counter <- t.counter + 1;
  t.decls <- (name, ty) :: t.decls;
  name

(** Splice the collected declarations into the top of a function body. *)
let splice_decls t (body : Ast.stmt) : Ast.stmt =
  match List.rev t.decls with
  | [] -> body
  | decls ->
      let decl_stmts =
        List.map
          (fun (name, ty) ->
            Ast.mk_stmt
              (Ast.Sdecl { Ast.d_name = name; d_ty = ty; d_init = None; d_loc = Loc.dummy }))
          decls
      in
      let inner =
        match body.Ast.sdesc with Ast.Sblock ss -> ss | _ -> [ body ]
      in
      Ast.mk_stmt ~loc:body.Ast.sloc (Ast.Sblock (decl_stmts @ inner))
