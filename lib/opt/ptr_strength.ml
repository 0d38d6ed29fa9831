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

(* Both shapes run in one forward pass per block and check their
   conditions in O(1) from per-register position tables.  A position is
   global over the function (a block's instruction idx sits at its base +
   idx), so the tables need no reset between blocks: an entry below the
   block's base means "not in this block".  The "dead after" tests read
   liveness computed before the block's rewrites, through one backward
   cursor pass. *)

(* within a block, rewrite shape 1; returns whether it rewrote anything *)
let fold_displacement (f : func) (live : Ir.Liveness.t) =
  (* last definition and last use before the current instruction, in the
     block as rewritten so far *)
  let last_def = Array.make f.fn_nreg (-1) and last_use = Array.make f.fn_nreg (-1) in
  let base = ref 0 and folded = ref false in
  List.iter
    (fun b ->
      let instrs = Array.of_list b.b_instrs in
      let n = Array.length instrs and base0 = !base in
      let p_or_t_live =
        Ir.Liveness.live_after live b instrs (function
          | Load (_, _, Reg p, Reg t) -> [ p; t ]
          | _ -> [])
      in
      (* prev_def.(idx): the previous definition of the register that
         instruction idx defines, so a rewrite can unlink idx *)
      let prev_def = Array.make n (-1) in
      for idx = 0 to n - 1 do
        (match instrs.(idx) with
        | Load (w, d, Reg p, Reg t)
          when p <> t && d <> p && (not p_or_t_live.(idx)) && last_def.(t) >= base0
          -> (
            (* the definition of t in this block: t := i +- c, with p, i, t
               unchanged and p and t unused between it and the load (p in
               particular not by a KeepLive marker; t, because the rewrite
               stops defining it) *)
            let jg = last_def.(t) in
            let j = jg - base0 in
            match instrs.(j) with
            | Bin (((Add | Sub) as op), _, Reg i, Imm c)
              when i <> t && i <> p && last_def.(p) < jg && last_def.(i) < jg
                   && last_use.(p) < jg && last_use.(t) < jg ->
                (* p := p op c   ...   ld d, [p + i] *)
                instrs.(j) <- Bin (op, p, Reg p, Imm c);
                instrs.(idx) <- Load (w, d, Reg p, Reg i);
                folded := true;
                last_def.(t) <- prev_def.(j);
                prev_def.(j) <- last_def.(p);
                last_def.(p) <- jg
            | _ -> ())
        | _ -> ());
        let g = base0 + idx in
        iter_uses (fun r -> last_use.(r) <- g) instrs.(idx);
        let d = def_reg instrs.(idx) in
        if d >= 0 then begin
          prev_def.(idx) <- last_def.(d);
          last_def.(d) <- g
        end
      done;
      base := base0 + n;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks;
  !folded

(* shape 2: q := p + c, p dead after, q's uses all in this block and q not a
   KeepLive operand: rename q to p (register reuse overwrites the base).

   A rename applies to every later instruction of the block.  Rather than
   rewrite them at once, the pass records it in [alias] and rewrites each
   instruction when the forward pass reaches it.  One level of aliases is
   enough: a rename needs q and p undefined for the rest of the block, so
   q never appears again (not as an operand, a destination or a rename
   target) and p is never renamed away.  The tables hold the last
   position of a definition, a use and a KeepLive operand of each name in
   the block as rewritten: definitions are never renamed, a rename folds
   q's use positions into p's, and a candidate's q was never a rename
   target, so its KeepLive positions are the original ones.  "p dead
   after" reads the instruction's original operand r: if a rename made it
   p, p is dead from that rename on, and r is live only through a later
   use, which is now a use of p that the last-use test rejects. *)
let reuse_base (f : func) (live : Ir.Liveness.t) =
  let nreg = f.fn_nreg in
  let last_def = Array.make nreg (-1)
  and last_use = Array.make nreg (-1)
  and last_keep = Array.make nreg (-1) in
  let alias = Array.init nreg Fun.id in
  let base = ref 0 in
  List.iter
    (fun b ->
      let instrs = Array.of_list b.b_instrs in
      let n = Array.length instrs and base0 = !base in
      let src_live =
        Ir.Liveness.live_after live b instrs (function
          | Bin ((Add | Sub), _, Reg p, Imm _) -> [ p ]
          | _ -> [])
      in
      Array.iteri
        (fun idx i ->
          let g = base0 + idx in
          iter_uses (fun r -> last_use.(r) <- g) i;
          (match i with KeepLive (Reg r) -> last_keep.(r) <- g | _ -> ());
          let d = def_reg i in
          if d >= 0 then last_def.(d) <- g)
        instrs;
      let term = term_uses b.b_term in
      let renamed = ref [] in
      for idx = 0 to n - 1 do
        let g = base0 + idx in
        let i =
          if !renamed = [] then instrs.(idx)
          else map_instr_ops (fun r -> Reg alias.(r)) instrs.(idx)
        in
        instrs.(idx) <- i;
        match i with
        | Bin (((Add | Sub) as op), q, Reg p, (Imm _ as c))
          when q <> p
               && (not src_live.(idx))
               && (not (Ir.Liveness.mem_out live b.b_label q))
               (* q not redefined later in the block and not in a later
                  KeepLive; p not defined or used later in the block *)
               && last_def.(q) <= g && last_keep.(q) <= g
               && last_def.(p) <= g && last_use.(p) <= g
               && not (List.mem q term || List.mem p term) ->
            instrs.(idx) <- Bin (op, p, Reg p, c);
            alias.(q) <- p;
            renamed := q :: !renamed;
            last_use.(p) <- max last_use.(p) last_use.(q)
        | _ -> ()
      done;
      List.iter (fun q -> alias.(q) <- q) !renamed;
      base := base0 + n;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks

(* shape 2 reads the liveness of shape 1's output, which is shape 1's
   input unless a fold rewrote it *)
let run (f : func) =
  let live = Ir.Liveness.compute f in
  let live = if fold_displacement f live then Ir.Liveness.compute f else live in
  reuse_base f live
