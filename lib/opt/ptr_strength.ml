(** The pointer-disguising transformation from the paper's introduction.

    "A conventional C compiler may replace a final reference [p\[i-1000\]]
    to the heap character pointer p by the sequence [p = p - 1000; ...
    p\[i\]...].  If a garbage collection is triggered between the
    replacement of p, and the reference to p\[i\], there may be no
    recognizable pointer to the object referenced by p."

    This pass performs exactly that rewrite (it is profitable because it
    moves the constant displacement out of the per-access index
    computation, e.g. out of a loop, or into a machine's small signed
    displacement field).  Its safety conditions are the *sequential* ones a
    conventional compiler checks — the base register is dead afterwards —
    which is precisely what makes the result GC-unsafe.

    Two shapes are handled:

    {ol
    {li [t := i ± c;  ld d, \[p + t\]]  with p and t dead after the load
        becomes [p := p ± c;  ld d, \[p + i\]] — the displacement is folded
        into the (overwritten) base;}
    {li [q := p + c] with p dead after: q is renamed to p — the classic
        register-reuse overwrite.}}

    KEEP_LIVE annotations defeat both: the [KeepLive] use keeps the base
    live past the arithmetic, and [Opaque] results never match the
    patterns.  That is the paper's claim, made mechanical. *)

open Ir.Instr

(* within a block, rewrite shape 1 *)
let fold_displacement (f : func) (live : Ir.Liveness.t) =
  List.iter
    (fun b ->
      let after = Ir.Liveness.per_instr live b in
      let instrs = Array.of_list b.b_instrs in
      let n = Array.length instrs in
      (* map: register -> (index of defining Bin(op, t, Reg i, Imm c)) *)
      for idx = 0 to n - 1 do
        match instrs.(idx) with
        | Load (w, d, Reg p, Reg t) when p <> t && d <> p ->
            (* find the definition of t in this block: t := i +- c *)
            let rec find_def j =
              if j < 0 then None
              else
                match instrs.(j) with
                | Bin (((Add | Sub) as op), t', Reg i, Imm c) when t' = t ->
                    Some (j, op, i, c)
                | other when Ir.Instr.def other = Some t -> None
                | _ -> find_def (j - 1)
            in
            (match find_def (idx - 1) with
            | Some (j, op, i, c) when i <> t && i <> p ->
                (* p and t must be dead after the load; p, i, t unchanged
                   between j and idx; p not used in between (in particular
                   not by a KeepLive marker) *)
                let dead_after r = not (Ir.Liveness.ISet.mem r after.(idx)) in
                let disjoint =
                  let ok = ref true in
                  for k = j + 1 to idx - 1 do
                    (match Ir.Instr.def instrs.(k) with
                    | Some d' when d' = p || d' = i || d' = t -> ok := false
                    | _ -> ());
                    if List.mem p (uses instrs.(k)) then ok := false
                  done;
                  !ok
                in
                if dead_after p && dead_after t && disjoint then begin
                  (* p := p op c   ...   ld d, [p + i] *)
                  instrs.(j) <- Bin (op, p, Reg p, Imm c);
                  instrs.(idx) <- Load (w, d, Reg p, Reg i)
                end
            | _ -> ())
        | _ -> ()
      done;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks

(* shape 2: q := p + c, p dead after, q's uses all in this block and q not a
   KeepLive operand: rename q to p (register reuse overwrites the base) *)
let reuse_base (f : func) (live : Ir.Liveness.t) =
  List.iter
    (fun b ->
      let after = Ir.Liveness.per_instr live b in
      let instrs = Array.of_list b.b_instrs in
      let n = Array.length instrs in
      for idx = 0 to n - 1 do
        match instrs.(idx) with
        | Bin (((Add | Sub) as op), q, Reg p, (Imm _ as c))
          when q <> p
               && (not (Ir.Liveness.ISet.mem p after.(idx)))
               && not (Ir.Liveness.ISet.mem q (Ir.Liveness.live_out live b.b_label))
          ->
            (* q must not be redefined later in the block, must not appear
               in a KeepLive, and p must not be used later in the block *)
            let ok = ref true in
            for k = idx + 1 to n - 1 do
              (match instrs.(k) with
              | KeepLive (Reg r) when r = q || r = p -> ok := false
              | _ -> ());
              (match Ir.Instr.def instrs.(k) with
              | Some d when d = q || d = p -> ok := false
              | _ -> ());
              if List.mem p (uses instrs.(k)) then ok := false
            done;
            (match b.b_term with
            | t when List.mem q (term_uses t) || List.mem p (term_uses t) ->
                ok := false
            | _ -> ());
            if !ok then begin
              instrs.(idx) <- Bin (op, p, Reg p, c);
              let rename r = if r = q then Reg p else Reg r in
              for k = idx + 1 to n - 1 do
                instrs.(k) <- map_instr_ops rename instrs.(k)
              done
            end
        | _ -> ()
      done;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks

let run (f : func) =
  let live = Ir.Liveness.compute f in
  fold_displacement f live;
  let live = Ir.Liveness.compute f in
  reuse_base f live
