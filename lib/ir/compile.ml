(** Lowering from the type-annotated AST to the three-address IR.

    Two compile modes mirror the paper's build configurations:
    - optimized ([opt_mode]): scalar locals whose address is never taken
      live in virtual registers, and address arithmetic with constant or
      simple offsets is folded into load/store address modes at selection
      time (the [ld \[%o0+1\]] baseline of the paper's Analysis section);
    - debuggable ([debug_mode]): every local lives in its stack slot and is
      reloaded around each use — "fully debuggable code", which is GC-safe
      by construction.  Its instruction selection still folds addresses,
      as an -O0 selector folds [fp+off] and [base+scaled] addresses.

    KEEP_LIVE lowers to the [KeepLive]/[Opaque] pseudo-instruction pair;
    because [Opaque] results cannot be seen through, address folding is
    blocked exactly where the paper says it must be. *)

open Csyntax
open Instr

exception Unsupported of string * Loc.t

let unsupported loc fmt =
  Format.kasprintf (fun s -> raise (Unsupported (s, loc))) fmt

type mode = { cm_locals_in_memory : bool }

let opt_mode = { cm_locals_in_memory = false }

let debug_mode = { cm_locals_in_memory = true }

type home = Hreg of reg | Hstack of int | Hglobal of int

(* ------------------------------------------------------------------ *)
(* Statics image                                                       *)
(* ------------------------------------------------------------------ *)

type statics = {
  mutable img : Bytes.t;
  mutable used : int;
  strings : (string, int) Hashtbl.t;
  mutable relocs : (int * int) list;
      (** (slot offset, target offset): slot holds a statics-relative
          pointer needing the statics base added at load time *)
}

let statics_create () =
  { img = Bytes.make 1024 '\000'; used = 0; strings = Hashtbl.create 16; relocs = [] }

let statics_alloc st size align =
  let off = (st.used + align - 1) / align * align in
  st.used <- off + size;
  while st.used > Bytes.length st.img do
    let fresh = Bytes.make (2 * Bytes.length st.img) '\000' in
    Bytes.blit st.img 0 fresh 0 (Bytes.length st.img);
    st.img <- fresh
  done;
  off

let statics_set_int st off width v =
  for i = 0 to width - 1 do
    Bytes.set st.img (off + i) (Char.chr ((v asr (8 * i)) land 0xff))
  done

let intern_string st s =
  match Hashtbl.find_opt st.strings s with
  | Some off -> off
  | None ->
      let off = statics_alloc st (String.length s + 1) 1 in
      Bytes.blit_string s 0 st.img off (String.length s);
      Hashtbl.replace st.strings s off;
      off

(* ------------------------------------------------------------------ *)
(* Compilation context                                                 *)
(* ------------------------------------------------------------------ *)

type fctx = {
  mode : mode;
  tenv : Ctype.Env.t;
  st : statics;
  globals : (string, int * Ctype.t) Hashtbl.t;
  homes : home Symtab.t;
  types : Ctype.t Symtab.t;  (** declared type of each variable in scope *)
  addressable : (string, unit) Hashtbl.t;  (** locals whose address is taken *)
  mutable nreg : int;
  mutable nlabel : int;
  mutable frame : int;
  mutable cur : block;
  mutable blocks : block list;  (** reverse order *)
  mutable breaks : label list;
  mutable continues : label list;
}

let fresh_reg c =
  let r = c.nreg in
  c.nreg <- c.nreg + 1;
  r

let fresh_label c =
  let l = c.nlabel in
  c.nlabel <- c.nlabel + 1;
  l

let emit c i = c.cur.b_instrs <- i :: c.cur.b_instrs

(* blocks collect instructions in reverse; sealed when switching *)
let start_block c l =
  let b = { b_label = l; b_instrs = []; b_term = Ret None } in
  c.blocks <- b :: c.blocks;
  c.cur <- b

let terminate c t =
  c.cur.b_term <- t

let alloc_stack c size align =
  let off = (c.frame + align - 1) / align * align in
  c.frame <- off + size;
  off

let size_of c ty = Ctype.size c.tenv ty

let width_of c ty = width_of_bytes (min 8 (size_of c ty))

let scalar_width c ty =
  match Ctype.decay ty with
  | Ctype.Char -> W1
  | Ctype.Short -> W2
  | Ctype.Int -> W4
  | Ctype.Long | Ctype.Ptr _ -> W8
  | t -> width_of c t

(* element size stepped over by arithmetic on pointer type [ty] *)
let step_size c ty =
  match Ctype.pointee (Ctype.decay ty) with
  | Some Ctype.Void -> 1
  | Some t -> size_of c t
  | None -> 1

(* ------------------------------------------------------------------ *)
(* Address-taken analysis                                              *)
(* ------------------------------------------------------------------ *)

(* The variables whose address [f] takes.  A checked build's
   [GC_pre_incr (&v, k)] is covered too: the fold visits its [&v]. *)
let addressable_vars (f : Ast.func) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let on_expr () (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.AddrOf lv ->
        Option.iter (fun v -> Hashtbl.replace tbl v ()) (Ast.addressed_var lv)
    | _ -> ()
  in
  ignore (Ast.fold_stmt_exprs on_expr () f.Ast.f_body);
  tbl

(* ------------------------------------------------------------------ *)
(* Constant folding for static initializers                            *)
(* ------------------------------------------------------------------ *)

let rec eval_const c (e : Ast.expr) : int option =
  match e.Ast.edesc with
  | Ast.IntLit n -> Some n
  | Ast.CharLit ch -> Some (Char.code ch)
  | Ast.SizeofType ty -> Some (size_of c ty)
  | Ast.SizeofExpr x -> Some (size_of c (Ast.typ x))
  | Ast.Unop (Ast.Neg, a) -> Option.map (fun v -> -v) (eval_const c a)
  | Ast.Unop (Ast.BitNot, a) -> Option.map lnot (eval_const c a)
  | Ast.Cast (_, a) -> eval_const c a
  | Ast.Binop (op, a, b) -> (
      match (eval_const c a, eval_const c b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x + y)
          | Ast.Sub -> Some (x - y)
          | Ast.Mul -> Some (x * y)
          | Ast.Div when y <> 0 -> Some (x / y)
          | Ast.Mod when y <> 0 -> Some (x mod y)
          | Ast.Shl -> Some (x lsl y)
          | Ast.Shr -> Some (x asr y)
          | Ast.BitAnd -> Some (x land y)
          | Ast.BitOr -> Some (x lor y)
          | Ast.BitXor -> Some (x lxor y)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* An lvalue is either a register-homed variable or a memory location
   expressed as base + offset operands. *)
type lv = Lreg of reg | Lmem of operand * operand

let rec rv c (e : Ast.expr) : operand =
  let loc = e.Ast.eloc in
  match e.Ast.edesc with
  | Ast.IntLit n -> Imm n
  | Ast.CharLit ch -> Imm (Char.code ch)
  | Ast.FloatLit _ -> unsupported loc "floating point"
  | Ast.StrLit s -> Glob (intern_string c.st s)
  | Ast.SizeofType ty -> Imm (size_of c ty)
  | Ast.SizeofExpr x -> Imm (size_of c (Ast.typ x))
  | Ast.Var x -> (
      match Symtab.find c.homes x with
      | Some (Hreg r) -> Reg r
      | Some (Hstack off) ->
          if Ctype.is_aggregate (Ast.typ e) then
            (* aggregates decay to their address *)
            let d = fresh_reg c in
            (emit c (Bin (Add, d, Reg fp, Imm off));
             Reg d)
          else
            let d = fresh_reg c in
            emit c (Load (scalar_width c (Ast.typ e), d, Reg fp, Imm off));
            Reg d
      | Some (Hglobal off) ->
          if Ctype.is_aggregate (Ast.typ e) then Glob off
          else
            let d = fresh_reg c in
            emit c (Load (scalar_width c (Ast.typ e), d, Glob off, Imm 0));
            Reg d
      | None -> unsupported loc "undeclared variable %s" x)
  | Ast.Unop (Ast.Neg, a) ->
      let va = rv c a in
      let d = fresh_reg c in
      emit c (Bin (Sub, d, Imm 0, va));
      Reg d
  | Ast.Unop (Ast.BitNot, a) ->
      let va = rv c a in
      let d = fresh_reg c in
      emit c (Bin (Xor, d, va, Imm (-1)));
      Reg d
  | Ast.Unop (Ast.Not, a) ->
      let va = rv c a in
      let d = fresh_reg c in
      emit c (Rel (Eq, d, va, Imm 0));
      Reg d
  | Ast.Binop ((Ast.LogAnd | Ast.LogOr), _, _) | Ast.Cond (_, _, _) ->
      control_value c e
  | Ast.Binop (op, a, b) -> binop_rv c loc op a b (Ast.rtyp e)
  | Ast.Assign (lhs, rhs) -> compile_assign c lhs rhs
  | Ast.OpAssign (op, lhs, rhs) -> compile_opassign c loc op lhs rhs
  | Ast.Incr (k, lhs) -> compile_incr c loc k lhs
  | Ast.Deref _ | Ast.Index (_, _) | Ast.Arrow (_, _) | Ast.Field (_, _) -> (
      if Ctype.is_aggregate (Ast.typ e) then
        (* value is the address (arrays) or the struct location *)
        addr_value c e
      else
        match lvalue c e with
        | Lreg r -> Reg r
        | Lmem (base, off) ->
            let d = fresh_reg c in
            emit c (Load (scalar_width c (Ast.typ e), d, base, off));
            Reg d)
  | Ast.AddrOf a -> addr_value c a
  | Ast.Call (fn, args) -> compile_call c (Some (Ast.typ e)) fn args
  | Ast.RuntimeCall (fn, args) -> compile_call c (Some (Ast.typ e)) fn args
  | Ast.Cast (ty, a) ->
      let v = rv c a in
      (* narrowing integer casts re-extend through a memory-free truncate:
         modelled as AND for unsigned-char-sized masks is wrong for signed
         chars, so use shifts *)
      let src_ty = Ast.rtyp a in
      let dst_sz = try size_of c ty with Ctype.Incomplete _ -> 8 in
      let src_sz = try size_of c (Ctype.decay src_ty) with Ctype.Incomplete _ -> 8 in
      if
        Ctype.is_integer ty && Ctype.is_integer (Ctype.decay src_ty)
        && dst_sz < src_sz && dst_sz < 8
      then narrow c (width_of_bytes dst_sz) v
      else v
  | Ast.Comma (a, b) ->
      ignore (rv c a);
      rv c b
  | Ast.KeepLive (a, base) ->
      let v = rv c a in
      (match base with
      | Some b ->
          let vb = rv c b in
          emit c (KeepLive vb)
      | None -> ());
      let d = fresh_reg c in
      emit c (Opaque (d, v));
      Reg d

and binop_rv c loc op a b result_ty : operand =
  let ta = Ast.rtyp a and tb = Ast.rtyp b in
  match op with
  | Ast.Add | Ast.Sub
    when Ctype.is_pointer ta || Ctype.is_pointer tb ->
      if Ctype.is_pointer ta && Ctype.is_pointer tb then begin
        (* pointer difference: (a - b) / elem *)
        let va = rv c a in
        let vb = rv c b in
        let d = fresh_reg c in
        emit c (Bin (Sub, d, va, vb));
        let elem = step_size c ta in
        if elem = 1 then Reg d
        else begin
          let q = fresh_reg c in
          emit c (Bin (Div, q, Reg d, Imm elem));
          Reg q
        end
      end
      else begin
        let ptr, idx = if Ctype.is_pointer ta then (a, b) else (b, a) in
        let vptr = rv c ptr in
        let vidx = scaled_index c idx (step_size c (Ast.rtyp ptr)) in
        let d = fresh_reg c in
        let irop = match op with Ast.Add -> Add | _ -> Sub in
        emit c (Bin (irop, d, vptr, vidx));
        Reg d
      end
  | _ ->
      let va = rv c a in
      let vb = rv c b in
      let d = fresh_reg c in
      (match op with
      | Ast.Add -> emit c (Bin (Add, d, va, vb))
      | Ast.Sub -> emit c (Bin (Sub, d, va, vb))
      | Ast.Mul -> emit c (Bin (Mul, d, va, vb))
      | Ast.Div -> emit c (Bin (Div, d, va, vb))
      | Ast.Mod -> emit c (Bin (Mod, d, va, vb))
      | Ast.Shl -> emit c (Bin (Shl, d, va, vb))
      | Ast.Shr -> emit c (Bin (Shr, d, va, vb))
      | Ast.BitAnd -> emit c (Bin (And, d, va, vb))
      | Ast.BitOr -> emit c (Bin (Or, d, va, vb))
      | Ast.BitXor -> emit c (Bin (Xor, d, va, vb))
      | Ast.Lt -> emit c (Rel (Lt, d, va, vb))
      | Ast.Gt -> emit c (Rel (Gt, d, va, vb))
      | Ast.Le -> emit c (Rel (Le, d, va, vb))
      | Ast.Ge -> emit c (Rel (Ge, d, va, vb))
      | Ast.Eq -> emit c (Rel (Eq, d, va, vb))
      | Ast.Ne -> emit c (Rel (Ne, d, va, vb))
      | Ast.LogAnd | Ast.LogOr -> unsupported loc "unexpected logical op");
      ignore result_ty;
      Reg d

(* index scaled by element size; constants are folded *)
and scaled_index c (idx : Ast.expr) elem : operand =
  match eval_const c idx with
  | Some n -> Imm (n * elem)
  | None ->
      let v = rv c idx in
      if elem = 1 then v
      else begin
        let d = fresh_reg c in
        emit c (Bin (Mul, d, v, Imm elem));
        Reg d
      end

(* The address of an lvalue as a value. *)
and addr_value c (e : Ast.expr) : operand =
  match lvalue c e with
  | Lreg _ -> unsupported e.Ast.eloc "address of register variable"
  | Lmem (base, Imm 0) -> base
  | Lmem (base, off) ->
      let d = fresh_reg c in
      emit c (Bin (Add, d, base, off));
      Reg d

(* Compute the location of an lvalue.  Constant and simple offsets stay
   in the addressing mode. *)
and lvalue c (e : Ast.expr) : lv =
  let loc = e.Ast.eloc in
  match e.Ast.edesc with
  | Ast.Var x -> (
      match Symtab.find c.homes x with
      | Some (Hreg r) -> Lreg r
      | Some (Hstack off) -> Lmem (Reg fp, Imm off)
      | Some (Hglobal off) -> Lmem (Glob off, Imm 0)
      | None -> unsupported loc "undeclared variable %s" x)
  | Ast.Deref a -> deref_addr c a
  | Ast.Index (a, i) ->
      let base = rv c a in
      let elem =
        match Ctype.pointee (Ast.rtyp a) with
        | Some t -> size_of c t
        | None -> unsupported loc "subscript of non-pointer"
      in
      Lmem (base, scaled_index c i elem)
  | Ast.Arrow (p, f) -> (
      let base = rv c p in
      match Ctype.pointee (Ast.rtyp p) with
      | Some sty -> (
          match Ctype.find_field c.tenv sty f with
          | Some fld -> Lmem (base, Imm fld.Ctype.fld_offset)
          | None -> unsupported loc "unknown field %s" f)
      | None -> unsupported loc "-> of non-pointer")
  | Ast.Field (b, f) -> (
      match lvalue c b with
      | Lreg _ -> unsupported loc "field of register variable"
      | Lmem (base, off) -> (
          match Ctype.find_field c.tenv (Ast.typ b) f with
          | Some fld -> (
              match off with
              | Imm n -> Lmem (base, Imm (n + fld.Ctype.fld_offset))
              | _ ->
                  let d = fresh_reg c in
                  emit c (Bin (Add, d, base, off));
                  Lmem (Reg d, Imm fld.Ctype.fld_offset))
          | None -> unsupported loc "unknown field %s" f))
  | Ast.Cast (_, b) -> lvalue c b
  | Ast.Comma (a, b) ->
      ignore (rv c a);
      lvalue c b
  | _ -> unsupported loc "not an lvalue: %a" Pretty.pp_expr e

(* The address operand for [*a], folding [*(p + k)] into base+offset
   form.  Opaque values (KEEP_LIVE results) are registers whose definition
   cannot be seen through, so annotated code never folds here — that is
   the point of the whole exercise. *)
and deref_addr c (a : Ast.expr) : lv =
  match a.Ast.edesc with
  | Ast.Binop (Ast.Add, x, y) when Ctype.is_pointer (Ast.rtyp x) ->
      let base = rv c x in
      let off = scaled_index c y (step_size c (Ast.rtyp x)) in
      Lmem (base, off)
  | Ast.Cast (_, inner) when Ctype.is_pointer (Ast.rtyp inner) ->
      deref_addr c inner
  | _ -> Lmem (rv c a, Imm 0)

(* Sign-extending truncation to a narrow width, for values kept in
   registers.  The VM word is OCaml's 63-bit int, hence the shift
   distance.  [int] (W4) values are left unmodelled at full width: 32-bit
   overflow is undefined behaviour in C and none of the workloads relies
   on it, while truncating every int assignment would distort the cycle
   counts badly. *)
and narrow c width (v : operand) : operand =
  match width with
  | W8 | W4 -> v
  | W1 | W2 -> (
      let bits = 8 * bytes_of_width width in
      let sh = Sys.int_size - bits in
      match v with
      | Imm n -> Imm ((n lsl sh) asr sh)
      | _ ->
          let t = fresh_reg c in
          emit c (Bin (Shl, t, v, Imm sh));
          let d = fresh_reg c in
          emit c (Bin (Shr, d, Reg t, Imm sh));
          Reg d)

and store c (l : lv) width (v : operand) =
  match l with
  | Lreg r -> (
      match narrow c width v with
      | Reg s when s = r -> ()
      | v -> emit c (Mov (r, v)))
  | Lmem (base, off) -> emit c (Store (width, v, base, off))

and load_lv c (l : lv) width : operand =
  match l with
  | Lreg r -> Reg r
  | Lmem (base, off) ->
      let d = fresh_reg c in
      emit c (Load (width, d, base, off));
      Reg d

and compile_assign c (lhs : Ast.expr) (rhs : Ast.expr) : operand =
  let lty = Ast.typ lhs in
  if Ctype.is_aggregate lty then begin
    (* whole-struct assignment: block copy *)
    let dst = addr_value c lhs in
    let src = rv c rhs in
    emit c (Push dst);
    emit c (Push src);
    emit c (Push (Imm (size_of c lty)));
    emit c (Call (None, "memcpy", 3));
    dst
  end
  else begin
    let l = lvalue c lhs in
    let v = rv c rhs in
    store c l (scalar_width c lty) v;
    v
  end

and compile_opassign c loc op (lhs : Ast.expr) (rhs : Ast.expr) : operand =
  let lty = Ctype.decay (Ast.typ lhs) in
  let w = scalar_width c (Ast.typ lhs) in
  let l = lvalue c lhs in
  let old = load_lv c l w in
  let v =
    if Ctype.is_pointer lty then begin
      let vidx = scaled_index c rhs (step_size c lty) in
      let d = fresh_reg c in
      let irop = match op with Ast.Add -> Add | Ast.Sub -> Sub | _ ->
        unsupported loc "pointer compound assignment %s" (Ast.binop_to_string op)
      in
      emit c (Bin (irop, d, old, vidx));
      Reg d
    end
    else begin
      let vr = rv c rhs in
      let d = fresh_reg c in
      let irop =
        match op with
        | Ast.Add -> Add
        | Ast.Sub -> Sub
        | Ast.Mul -> Mul
        | Ast.Div -> Div
        | Ast.Mod -> Mod
        | Ast.Shl -> Shl
        | Ast.Shr -> Shr
        | Ast.BitAnd -> And
        | Ast.BitOr -> Or
        | Ast.BitXor -> Xor
        | _ -> unsupported loc "compound assignment %s" (Ast.binop_to_string op)
      in
      emit c (Bin (irop, d, old, vr));
      Reg d
    end
  in
  store c l w v;
  v

and compile_incr c _loc k (lhs : Ast.expr) : operand =
  let lty = Ctype.decay (Ast.typ lhs) in
  let w = scalar_width c (Ast.typ lhs) in
  let delta = if Ctype.is_pointer lty then step_size c lty else 1 in
  let l = lvalue c lhs in
  let old = load_lv c l w in
  (* make sure the old value survives the update for post forms *)
  let old_saved =
    match (k, old) with
    | (Ast.PostIncr | Ast.PostDecr), Reg r when l = Lreg r ->
        let t = fresh_reg c in
        emit c (Mov (t, old));
        Reg t
    | _ -> old
  in
  let d = fresh_reg c in
  let op =
    match k with
    | Ast.PreIncr | Ast.PostIncr -> Add
    | Ast.PreDecr | Ast.PostDecr -> Sub
  in
  emit c (Bin (op, d, old_saved, Imm delta));
  store c l w (Reg d);
  match k with
  | Ast.PreIncr | Ast.PreDecr -> Reg d
  | Ast.PostIncr | Ast.PostDecr -> old_saved

and compile_call c ret_ty fn args : operand =
  let vargs = List.map (rv c) args in
  List.iter (fun v -> emit c (Push v)) vargs;
  let want_result =
    match ret_ty with Some Ctype.Void | None -> false | Some _ -> true
  in
  if want_result then begin
    let d = fresh_reg c in
    emit c (Call (Some d, fn, List.length vargs));
    Reg d
  end
  else begin
    emit c (Call (None, fn, List.length vargs));
    Imm 0
  end

(* Short-circuit operators and ?: as values, via control flow into a
   result register. *)
and control_value c (e : Ast.expr) : operand =
  let d = fresh_reg c in
  let ltrue = fresh_label c
  and lfalse = fresh_label c
  and ljoin = fresh_label c in
  (match e.Ast.edesc with
  | Ast.Cond (cond, a, b) ->
      let lthen = fresh_label c and lelse = fresh_label c in
      compile_branch c cond lthen lelse;
      start_block c lthen;
      let va = rv c a in
      emit c (Mov (d, va));
      terminate c (Jmp ljoin);
      start_block c lelse;
      let vb = rv c b in
      emit c (Mov (d, vb));
      terminate c (Jmp ljoin)
  | _ ->
      compile_branch c e ltrue lfalse;
      start_block c ltrue;
      emit c (Mov (d, Imm 1));
      terminate c (Jmp ljoin);
      start_block c lfalse;
      emit c (Mov (d, Imm 0));
      terminate c (Jmp ljoin));
  start_block c ljoin;
  Reg d

(* Compile [e] for control: branch to [lt] when nonzero, [lf] otherwise. *)
and compile_branch c (e : Ast.expr) (lt : label) (lf : label) =
  match e.Ast.edesc with
  | Ast.Binop (Ast.LogAnd, a, b) ->
      let lmid = fresh_label c in
      compile_branch c a lmid lf;
      start_block c lmid;
      compile_branch c b lt lf
  | Ast.Binop (Ast.LogOr, a, b) ->
      let lmid = fresh_label c in
      compile_branch c a lt lmid;
      start_block c lmid;
      compile_branch c b lt lf
  | Ast.Unop (Ast.Not, a) -> compile_branch c a lf lt
  | _ ->
      let v = rv c e in
      terminate c (Br (v, lt, lf))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let declare_local c (d : Ast.decl) =
  let ty = d.Ast.d_ty in
  Symtab.add c.types d.Ast.d_name ty;
  let in_memory =
    c.mode.cm_locals_in_memory
    || Ctype.is_aggregate ty
    || Hashtbl.mem c.addressable d.Ast.d_name
  in
  let home =
    if in_memory then Hstack (alloc_stack c (size_of c ty) (Ctype.align c.tenv ty))
    else Hreg (fresh_reg c)
  in
  Symtab.add c.homes d.Ast.d_name home;
  match d.Ast.d_init with
  | Some init ->
      let v = rv c init in
      let l =
        match home with
        | Hreg r -> Lreg r
        | Hstack off -> Lmem (Reg fp, Imm off)
        | Hglobal off -> Lmem (Glob off, Imm 0)
      in
      store c l (scalar_width c ty) v
  | None -> ()

let rec compile_stmt c (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Sexpr e -> ignore (rv c e)
  | Ast.Sdecl d -> declare_local c d
  | Ast.Sif (cond, a, b) ->
      let lthen = fresh_label c
      and lelse = fresh_label c
      and ljoin = fresh_label c in
      compile_branch c cond lthen lelse;
      start_block c lthen;
      compile_stmt c a;
      terminate c (Jmp ljoin);
      start_block c lelse;
      Option.iter (compile_stmt c) b;
      terminate c (Jmp ljoin);
      start_block c ljoin
  | Ast.Swhile (cond, body) ->
      let lhead = fresh_label c
      and lbody = fresh_label c
      and lexit = fresh_label c in
      terminate c (Jmp lhead);
      start_block c lhead;
      compile_branch c cond lbody lexit;
      start_block c lbody;
      c.breaks <- lexit :: c.breaks;
      c.continues <- lhead :: c.continues;
      compile_stmt c body;
      c.breaks <- List.tl c.breaks;
      c.continues <- List.tl c.continues;
      terminate c (Jmp lhead);
      start_block c lexit
  | Ast.Sdowhile (body, cond) ->
      let lbody = fresh_label c
      and lcond = fresh_label c
      and lexit = fresh_label c in
      terminate c (Jmp lbody);
      start_block c lbody;
      c.breaks <- lexit :: c.breaks;
      c.continues <- lcond :: c.continues;
      compile_stmt c body;
      c.breaks <- List.tl c.breaks;
      c.continues <- List.tl c.continues;
      terminate c (Jmp lcond);
      start_block c lcond;
      compile_branch c cond lbody lexit;
      start_block c lexit
  | Ast.Sfor (init, cond, step, body) ->
      Option.iter (fun e -> ignore (rv c e)) init;
      let lhead = fresh_label c
      and lbody = fresh_label c
      and lstep = fresh_label c
      and lexit = fresh_label c in
      terminate c (Jmp lhead);
      start_block c lhead;
      (match cond with
      | Some e -> compile_branch c e lbody lexit
      | None -> terminate c (Jmp lbody));
      start_block c lbody;
      c.breaks <- lexit :: c.breaks;
      c.continues <- lstep :: c.continues;
      compile_stmt c body;
      c.breaks <- List.tl c.breaks;
      c.continues <- List.tl c.continues;
      terminate c (Jmp lstep);
      start_block c lstep;
      Option.iter (fun e -> ignore (rv c e)) step;
      terminate c (Jmp lhead);
      start_block c lexit
  | Ast.Sreturn (Some e) ->
      let v = rv c e in
      terminate c (Ret (Some v));
      start_block c (fresh_label c)
  | Ast.Sreturn None ->
      terminate c (Ret None);
      start_block c (fresh_label c)
  | Ast.Sbreak -> (
      match c.breaks with
      | l :: _ ->
          terminate c (Jmp l);
          start_block c (fresh_label c)
      | [] -> unsupported s.Ast.sloc "break outside loop")
  | Ast.Scontinue -> (
      match c.continues with
      | l :: _ ->
          terminate c (Jmp l);
          start_block c (fresh_label c)
      | [] -> unsupported s.Ast.sloc "continue outside loop")
  | Ast.Sempty -> ()
  | Ast.Sblock ss ->
      Symtab.in_scope c.homes (fun () ->
          Symtab.in_scope c.types (fun () -> List.iter (compile_stmt c) ss))

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let compile_func mode tenv st globals (f : Ast.func) : func =
  let entry = { b_label = 0; b_instrs = []; b_term = Ret None } in
  let c =
    {
      mode;
      tenv;
      st;
      globals;
      homes = Symtab.create ();
      types = Symtab.create ();
      addressable = addressable_vars f;
      nreg = first_vreg;
      nlabel = 1;
      frame = 0;
      cur = entry;
      blocks = [ entry ];
      breaks = [];
      continues = [];
    }
  in
  (* globals are visible as variables *)
  Hashtbl.iter
    (fun name (off, ty) ->
      Symtab.add c.homes name (Hglobal off);
      Symtab.add c.types name ty)
    globals;
  Symtab.enter_scope c.homes;
  Symtab.enter_scope c.types;
  (* parameters arrive in fresh registers; memory-homed ones are stored to
     their slots in the prologue *)
  let params =
    List.map
      (fun (name, ty) ->
        let r = fresh_reg c in
        Symtab.add c.types name ty;
        let in_memory =
          mode.cm_locals_in_memory || Hashtbl.mem c.addressable name
          || Ctype.is_aggregate ty
        in
        if in_memory then begin
          let off = alloc_stack c (size_of c ty) (Ctype.align tenv ty) in
          Symtab.add c.homes name (Hstack off);
          emit c (Store (scalar_width c ty, Reg r, Reg fp, Imm off))
        end
        else Symtab.add c.homes name (Hreg r);
        r)
      f.Ast.f_params
  in
  compile_stmt c f.Ast.f_body;
  (* finish blocks: reverse instruction lists; implicit return at the end *)
  let blocks =
    List.rev_map
      (fun b ->
        b.b_instrs <- List.rev b.b_instrs;
        b)
      c.blocks
  in
  {
    fn_name = f.Ast.f_name;
    fn_params = params;
    fn_ret_void = f.Ast.f_ret = Ctype.Void;
    fn_blocks = blocks;
    fn_nreg = c.nreg;
    fn_frame = c.frame;
  }

(** Lay out globals in the statics image and compile every function. *)
let compile_program ?(mode = opt_mode) (p : Ast.program) : program =
  let tenv = p.Ast.prog_env in
  let st = statics_create () in
  let globals : (string, int * Ctype.t) Hashtbl.t = Hashtbl.create 16 in
  (* pass 1: lay out global variables *)
  List.iter
    (function
      | Ast.Gvar d ->
          let ty = d.Ast.d_ty in
          let off =
            statics_alloc st (Ctype.size tenv ty) (Ctype.align tenv ty)
          in
          Hashtbl.replace globals d.Ast.d_name (off, ty)
      | Ast.Gfunc _ | Ast.Gstruct _ | Ast.Gproto _ -> ())
    p.Ast.prog_globals;
  (* pass 2: global initializers (constants and string literals) *)
  let dummy_ctx () =
    let entry = { b_label = 0; b_instrs = []; b_term = Ret None } in
    {
      mode;
      tenv;
      st;
      globals;
      homes = Symtab.create ();
      types = Symtab.create ();
      addressable = Hashtbl.create 1;
      nreg = first_vreg;
      nlabel = 1;
      frame = 0;
      cur = entry;
      blocks = [ entry ];
      breaks = [];
      continues = [];
    }
  in
  List.iter
    (function
      | Ast.Gvar ({ Ast.d_init = Some init; _ } as d) -> (
          let off, ty = Hashtbl.find globals d.Ast.d_name in
          match init.Ast.edesc with
          | Ast.StrLit s -> (
              let stroff = intern_string st s in
              match ty with
              | Ctype.Ptr _ ->
                  (* pointer global initialized to a string: relocation *)
                  st.relocs <- (off, stroff) :: st.relocs
              | Ctype.Array (Ctype.Char, _) ->
                  Bytes.blit_string s 0 st.img off (String.length s)
              | _ ->
                  raise
                    (Unsupported
                       ("string initializer for non-pointer global", d.Ast.d_loc)))
          | _ -> (
              match eval_const (dummy_ctx ()) init with
              | Some v ->
                  statics_set_int st off (min 8 (Ctype.size tenv ty)) v
              | None ->
                  raise
                    (Unsupported
                       ("non-constant global initializer", d.Ast.d_loc))))
      | Ast.Gvar _ | Ast.Gfunc _ | Ast.Gstruct _ | Ast.Gproto _ -> ())
    p.Ast.prog_globals;
  (* pass 3: functions (string interning continues to grow the image) *)
  let funcs =
    List.filter_map
      (function
        | Ast.Gfunc f -> Some (compile_func mode tenv st globals f)
        | Ast.Gvar _ | Ast.Gstruct _ | Ast.Gproto _ -> None)
      p.Ast.prog_globals
  in
  {
    p_funcs = funcs;
    p_statics = Bytes.sub st.img 0 st.used;
    p_relocs = st.relocs;
  }
