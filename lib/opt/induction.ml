(** Induction-variable strength reduction: replace per-iteration index
    scaling with a moving pointer.

    The paper lists "induction variable optimizations" alongside the
    displacement fold as transformations that can disguise pointers.  This
    pass performs the classical rewrite on the two-block loops our lowering
    produces:

    {v
      preheader:  i := 0                      preheader:  i := 0
      head:       c := i < n                  head:       m := a + 0 ... (hoisted)
                  br c, body, exit    ==>                 c := i < n
      body:       t := i * w                              br c, body, exit
                  d := ld [a + t]             body:       d := ld [m + 0]
                  i := i + 1                              i := i + 1
                  jmp head                                m := m + w
                                                          jmp head
    v}

    The moving pointer [m] is an interior pointer for the whole loop, so
    the rewrite is GC-safe here by itself (and the collector's extra byte
    covers the one-past-the-end value after the final step).  What matters
    for the paper's argument is that annotated code — whose loads go
    through [Opaque] results — never matches the pattern, so KEEP_LIVE
    semantics survive this optimizer too.

    Conditions: single [i := i + 1] in the body, [t := i * w] used only as
    the offset of loads/stores with a loop-invariant base, [i] initialized
    to a constant in the preheader, and the scaled access appearing before
    the increment. *)

open Ir.Instr

(* the shape produced by our lowering: head (condition, 2 preds) with a
   body block jumping back to it *)
type loop_shape = {
  ls_head : block;
  ls_body : block;
  ls_preheader : block;
}

let find_loops (f : func) : loop_shape list =
  let preds = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          Hashtbl.replace preds l (b :: Option.value ~default:[] (Hashtbl.find_opt preds l)))
        (successors b.b_term))
    f.fn_blocks;
  let by_label = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_label b.b_label b) f.fn_blocks;
  List.filter_map
    (fun head ->
      match head.b_term with
      | Br (_, lbody, _) -> (
          (* the body is the branch target that jumps straight back *)
          match Hashtbl.find_opt by_label lbody with
          | Some body when body.b_term = Jmp head.b_label && body != head -> (
              match
                ( Hashtbl.find_opt preds body.b_label,
                  Hashtbl.find_opt preds head.b_label )
              with
              | Some [ h ], Some [ p1; p2 ]
                when h == head && (p1 == body || p2 == body) ->
                  let pre = if p1 == body then p2 else p1 in
                  if pre != body && pre != head then
                    Some { ls_head = head; ls_body = body; ls_preheader = pre }
                  else None
              | _ -> None)
          | _ -> None)
      | Jmp _ | Ret _ -> None)
    f.fn_blocks

(* i := i + 1 instructions in a block *)
let increments body =
  List.filter_map
    (function
      | Bin (Add, i, Reg i', Imm 1) when i = i' -> Some i
      | _ -> None)
    body.b_instrs

let defs_in b =
  List.filter_map def b.b_instrs

let const_init_of pre i =
  (* last write to i in the preheader must be a constant move *)
  List.fold_left
    (fun acc instr ->
      match instr with
      | Mov (d, Imm k) when d = i -> Some k
      | other -> if def other = Some i then None else acc)
    None pre.b_instrs

let rewrite_loop (f : func) (live : Ir.Liveness.t) (ls : loop_shape) : bool =
  let body = ls.ls_body in
  match increments body with
  | [ i ] -> (
      let instrs = Array.of_list body.b_instrs in
      
      let incr_pos = ref (-1) in
      Array.iteri
        (fun k instr ->
          match instr with
          | Bin (Add, d, Reg d', Imm 1) when d = i && d' = i -> incr_pos := k
          | _ -> ())
        instrs;
      (* find t := i * w with all uses being [base + t] addressing before
         the increment, base loop-invariant *)
      let loop_defs = defs_in body @ defs_in ls.ls_head in
      let candidate = ref None in
      Array.iteri
        (fun k instr ->
          match instr with
          | Bin (Mul, t, Reg i', Imm w)
            when i' = i && k < !incr_pos && !candidate = None && w > 0 ->
              let uses_ok = ref true and use_count = ref 0 and base = ref None in
              Array.iteri
                (fun k2 instr2 ->
                  if k2 <> k then begin
                    (match instr2 with
                    | Load (_, _, Reg a, Reg t') when t' = t ->
                        incr use_count;
                        if k2 > !incr_pos then uses_ok := false;
                        (match !base with
                        | None -> base := Some a
                        | Some a' -> if a' <> a then uses_ok := false)
                    | Store (_, src, Reg a, Reg t')
                      when t' = t && src <> Reg t ->
                        incr use_count;
                        if k2 > !incr_pos then uses_ok := false;
                        (match !base with
                        | None -> base := Some a
                        | Some a' -> if a' <> a then uses_ok := false)
                    | _ ->
                        if List.mem t (uses instr2) then uses_ok := false);
                    if def instr2 = Some t then uses_ok := false
                  end)
                instrs;
              (* t must not escape the body *)
              if
                !uses_ok && !use_count > 0
                && (not (Ir.Liveness.mem_out live body.b_label t))
                &&
                match !base with
                | Some a -> not (List.mem a loop_defs)
                | None -> false
              then candidate := Some (k, t, w, Option.get !base)
          | _ -> ())
        instrs;
      match (!candidate, const_init_of ls.ls_preheader i) with
      | Some (mul_pos, t, w, a), Some init ->
          (* fresh moving pointer *)
          let m = f.fn_nreg in
          f.fn_nreg <- f.fn_nreg + 1;
          (* preheader: m := a + init*w *)
          ls.ls_preheader.b_instrs <-
            ls.ls_preheader.b_instrs
            @ [ Bin (Add, m, Reg a, Imm (init * w)) ];
          (* body: drop the mul, rewrite accesses, bump m after the incr *)
          let rewritten =
            Array.to_list instrs
            |> List.filteri (fun k _ -> k <> mul_pos)
            |> List.map (fun instr ->
                   match instr with
                   | Load (wd, d, Reg a', Reg t') when t' = t && a' = a ->
                       Load (wd, d, Reg m, Imm 0)
                   | Store (wd, src, Reg a', Reg t') when t' = t && a' = a ->
                       Store (wd, src, Reg m, Imm 0)
                   | other -> other)
          in
          body.b_instrs <- rewritten @ [ Bin (Add, m, Reg m, Imm w) ];
          true
      | _ -> false)
  | _ -> false

(* every loop reads the liveness of the function as it was before the
   first rewrite; a function without loops needs none *)
let run (f : func) =
  match find_loops f with
  | [] -> ()
  | loops ->
      let live = Ir.Liveness.compute f in
      List.iter (fun ls -> ignore (rewrite_loop f live ls)) loops
