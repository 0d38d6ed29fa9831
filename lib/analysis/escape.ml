(** Address-taken / escape analysis; see the interface. *)

open Csyntax

type t = {
  esc_addr : (string, unit) Hashtbl.t;
  esc_params : (string, unit) Hashtbl.t;
  esc_global : string -> bool;
}

let analyze ~global (f : Ast.func) : t =
  let addr = Hashtbl.create 8 in
  let on_expr () (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.AddrOf lv ->
        Option.iter (fun v -> Hashtbl.replace addr v ()) (Ast.addressed_var lv)
    | _ -> ()
  in
  ignore (Ast.fold_stmt_exprs on_expr () f.Ast.f_body);
  let params = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace params name ()) f.Ast.f_params;
  { esc_addr = addr; esc_params = params; esc_global = global }

let address_taken t v = Hashtbl.mem t.esc_addr v

let escapes t v = Hashtbl.mem t.esc_addr v || t.esc_global v

let is_param t v = Hashtbl.mem t.esc_params v
