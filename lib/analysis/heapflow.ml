(** Flow-sensitive may-point-to-heap; see the interface. *)

open Csyntax
module VS = Dataflow.VarSet
module Solver = Dataflow.Make (Dataflow.SetDomain)

type t = {
  hf_cfg : Cfg.t;
  hf_res : Solver.result;
  hf_esc : Escape.t;
  hf_global : string -> bool;
}

let cfg t = t.hf_cfg

(* Is the value of [e] possibly a heap pointer, with variables resolved
   against [state]?  This is the one heap-or-not classification of an
   expression: call results and loads from memory are heapy, addresses of
   locals are not. *)
let rec heapy esc global state (e : Ast.expr) =
  let heapy = heapy esc global state in
  let heapy_addr = heapy_addr esc global state in
  match e.Ast.edesc with
  | Ast.IntLit _ | Ast.CharLit _ | Ast.FloatLit _ | Ast.SizeofType _
  | Ast.SizeofExpr _ | Ast.StrLit _ ->
      false
  | Ast.Var v -> VS.mem v state || global v || Escape.address_taken esc v
  | Ast.Call (_, _) | Ast.RuntimeCall (_, _) -> true
  | Ast.Deref _ -> true (* a pointer loaded from memory *)
  | Ast.Index (_, _) | Ast.Arrow (_, _) | Ast.Field (_, _) -> (
      match e.Ast.ety with
      | Some (Ctype.Array _) -> heapy_addr e (* the element's address *)
      | _ -> true (* scalar load from memory *))
  | Ast.AddrOf lv -> heapy_addr lv
  | Ast.Binop ((Ast.Add | Ast.Sub), a, b) -> heapy a || heapy b
  | Ast.Binop (_, _, _) | Ast.Unop (_, _) -> false
  | Ast.Cast (_, x) -> heapy x
  | Ast.Cond (_, a, b) -> heapy a || heapy b
  | Ast.Comma (_, b) -> heapy b
  | Ast.Assign (_, r) -> heapy r
  | Ast.OpAssign (_, l, _) | Ast.Incr (_, l) -> heapy l
  | Ast.KeepLive (x, _) -> heapy x

(* is the address of lvalue [lv] possibly inside a heap object? *)
and heapy_addr esc global state (lv : Ast.expr) =
  let heapy = heapy esc global state in
  let heapy_addr = heapy_addr esc global state in
  match lv.Ast.edesc with
  | Ast.Var _ -> false (* stack or static storage *)
  | Ast.Deref a -> heapy a
  | Ast.Index (a, _) -> (
      match a.Ast.ety with
      | Some (Ctype.Array _) -> heapy_addr a
      | _ -> heapy a)
  | Ast.Arrow (p, _) -> heapy p
  | Ast.Field (b, _) -> heapy_addr b
  | Ast.Cast (_, b) -> heapy_addr b
  | _ -> true

(* All assignments [v = rhs] to simple variables anywhere in [e],
   including the decl binding when the point is a declaration. *)
let var_assigns_of_point p =
  let of_expr acc e =
    Ast.fold_expr
      (fun acc x ->
        match x.Ast.edesc with
        | Ast.Assign ({ Ast.edesc = Ast.Var v; _ }, rhs) -> (v, rhs) :: acc
        | _ -> acc)
      acc e
  in
  let inner = List.fold_left of_expr [] (Cfg.exprs_of p) in
  match Cfg.binding_of p with
  | Some (x, Some init) -> (x, init) :: inner
  | _ -> inner

let analyze ?cfg ~escape ~global (f : Ast.func) : t =
  let cfg = match cfg with Some c -> c | None -> Cfg.build f in
  (* a variable is worth tracking only if assignments can retarget it
     predictably: not a global, not address-taken *)
  let tracked v = not (global v || Escape.address_taken escape v) in
  let transfer p state =
    let assigns = var_assigns_of_point p in
    (* may-additions to a fixpoint: an assignment's rhs is evaluated
       under the state including any earlier additions at this point *)
    let state' = ref state in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (v, rhs) ->
          if
            tracked v
            && (not (VS.mem v !state'))
            && heapy escape global !state' rhs
          then begin
            state' := VS.add v !state';
            changed := true
          end)
        assigns
    done;
    (* strong update: a whole-statement assignment or initializer of a
       provably non-heap value removes the target — but only when it is
       the sole assignment to that variable at this point, so values that
       are heapy transiently within the statement stay in the out-state
       (queries look at in ∪ out) *)
    let top_binding =
      match Cfg.binding_of p with
      | Some (x, Some init) -> Some (x, init)
      | Some (_, None) -> None
      | None -> (
          match Cfg.exprs_of p with
          | [ { Ast.edesc = Ast.Assign ({ Ast.edesc = Ast.Var v; _ }, rhs); _ } ]
            ->
              Some (v, rhs)
          | _ -> None)
    in
    match top_binding with
    | Some (v, rhs)
      when tracked v
           && List.length (List.filter (fun (x, _) -> x = v) assigns) <= 1
           && not (heapy escape global !state' rhs) ->
        VS.remove v !state'
    | _ -> !state'
  in
  (* parameters may point anywhere at entry *)
  let boundary =
    List.fold_left
      (fun acc (name, _) -> VS.add name acc)
      VS.empty f.Ast.f_params
  in
  let res = Solver.solve ~dir:Dataflow.Forward ~boundary ~transfer cfg in
  { hf_cfg = cfg; hf_res = res; hf_esc = escape; hf_global = global }

let may_be_heap t (pt : Cfg.point option) v =
  if t.hf_global v || Escape.address_taken t.hf_esc v then true
  else
    match pt with
    | None -> true
    | Some p ->
        let id = p.Cfg.pt_id in
        if not t.hf_res.Solver.df_reached.(id) then true
        else
          VS.mem v t.hf_res.Solver.df_input.(id)
          || VS.mem v t.hf_res.Solver.df_output.(id)
