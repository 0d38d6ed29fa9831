(** The peephole postprocessor ("A Postprocessor").

    Runs on register-allocated code, like the paper's SPARC assembly-level
    tool derived from the [Boehm94] instruction scheduler.  "It first
    performs a simple global, intraprocedural analysis that allows us to
    identify possible uses of register values.  It subsequently looks for
    one of the following three patterns inside each basic block and
    transforms them appropriately."

    Pattern 1 — fold an addition into the load's address mode:
    {v add x,y,z ; ... ; ld [z]     ==>   ... ; ld [x+y] v}

    Pattern 2 — forward a move:
    {v mov x,z   ; ... ; ...z...    ==>   ... ; ...x... v}

    Pattern 3 — sink an addition into its final destination:
    {v add x,y,z ; ... ; mov z,w    ==>   ... ; add x,y,w v}

    Safety constraints (the paper's):
    - the rewritten register [z] must have no other uses — in particular it
      must never be mentioned as the second argument of a KEEP_LIVE (our
      [KeepLive] marker is the paper's "special comment");
    - the source registers must not be redefined in between ("x is not
      overridden"), so all values remain live in the same ranges as before
      and KEEP_LIVE semantics cannot be invalidated.

    Registers are not reassigned and the result is not rescheduled, as in
    the paper. *)

open Ir.Instr

type stats = {
  mutable ph_fused_loads : int;
  mutable ph_forwarded_moves : int;
  mutable ph_sunk_adds : int;
}

let fresh_stats () =
  { ph_fused_loads = 0; ph_forwarded_moves = 0; ph_sunk_adds = 0 }

(* registers mentioned as KEEP_LIVE operands anywhere in the function: the
   transformation "could not apply if z were originally mentioned as the
   second argument of a KEEP_LIVE" *)
let keep_live_regs (f : func) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (function
          | KeepLive (Reg r) -> Hashtbl.replace tbl r ()
          | _ -> ())
        b.b_instrs)
    f.fn_blocks;
  tbl

let op_reg = function Reg r -> Some r | Imm _ | Glob _ -> None

(* does instruction k redefine any register in [rs]? *)
let redefines instr rs =
  match def instr with Some d -> List.mem d rs | None -> false

let reg_list ops = List.filter_map op_reg ops

(* Patterns 1 and 3 fold an add into a later instruction.  They find the
   add, and check that nothing between reads its result or redefines its
   operands, in O(1) from two tables: the last definition of each
   register before the current instruction, among those not removed, and
   its last use.  Every register a removed add reads is also read by the
   later instruction it was folded into, so a use recorded for a removed
   add is never the last one.  Positions are global over the function
   and count on from one pattern to the next (a block's instruction idx
   sits at its base + idx), so the tables need no reset: an entry below
   the block's base means "not in this block". *)
type defs = { last_def : int array; last_use : int array; mutable base : int }

(* [body def_before untouched remove idx] for each instruction idx of a
   block, in order.  [def_before r] is the block's nearest definition of
   [r] before idx, or -1.  [untouched j z rs]: no instruction strictly
   between j and idx reads [z] or defines one of [rs].  [remove j r]
   drops j, which [def_before r] returned; [prev.(j)] is the definition
   j shadowed, so [r]'s entry goes back to that one. *)
let walk_defs defs instrs body =
  let n = Array.length instrs and base0 = defs.base in
  let prev = Array.make n (-1) in
  let def_before r =
    let g = defs.last_def.(r) in
    if g < base0 then -1 else g - base0
  and untouched j z rs =
    let g = base0 + j in
    defs.last_use.(z) <= g && List.for_all (fun r -> defs.last_def.(r) <= g) rs
  and remove j r = defs.last_def.(r) <- prev.(j) in
  for idx = 0 to n - 1 do
    body def_before untouched remove idx;
    let g = base0 + idx in
    iter_uses (fun r -> defs.last_use.(r) <- g) instrs.(idx);
    let d = def_reg instrs.(idx) in
    if d >= 0 then begin
      prev.(idx) <- defs.last_def.(d);
      defs.last_def.(d) <- g
    end
  done;
  defs.base <- base0 + n

(* Each pattern rewrites one block and returns whether it changed it. *)

(* Pattern 1: add x,y,z ; ... ; ld d,[z+0]  ==>  ld d,[x+y].
   z dead after the load, z unused in between and after, x,y stable. *)
let fuse_loads stats klregs defs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Load (_, _, Reg z, Imm 0) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false and changed = ref false in
  walk_defs defs instrs (fun def_before untouched remove idx ->
      match instrs.(idx) with
      | Load (w, d, Reg z, Imm 0) when not (Hashtbl.mem klregs z) -> (
          (* the defining add *)
          match def_before z with
          | -1 -> ()
          | j -> (
              (* z dead after, unused and x,y unchanged strictly
                 between j and idx *)
              match instrs.(j) with
              | Bin (Add, _, x, y)
                when (not z_live.(idx)) && untouched j z (z :: reg_list [ x; y ]) ->
                  removed.(j) <- true;
                  remove j z;
                  instrs.(idx) <- Load (w, d, x, y);
                  changed := true;
                  stats.ph_fused_loads <- stats.ph_fused_loads + 1
              | _ -> ()))
      | _ -> ());
  if !changed then
    b.b_instrs <-
      List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs);
  !changed

(* Pattern 2: mov z,x forwarding — rewrite in-block uses of z to x while x
   and z are unchanged; drop the mov when z ends up dead. *)
let forward_moves stats klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let removed = Array.make n false and changed = ref false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Mov (z, Reg x) when z <> x && not (Hashtbl.mem klregs z) ->
        (* rewrite following uses of z to x until z or x is redefined *)
        let stop = ref false in
        let k = ref (idx + 1) in
        while (not !stop) && !k < n do
          if not removed.(!k) then begin
            let i = instrs.(!k) in
            if List.mem z (uses i) then begin
              instrs.(!k) <-
                map_instr_ops (fun r -> if r = z then Reg x else Reg r) i;
              changed := true
            end;
            if redefines i [ z; x ] then stop := true
          end;
          incr k
        done;
        (* the mov is removable if z is now locally dead: no remaining use
           of z after idx in the block before any redef, and z redefined
           in the block or dead at its end (live-out ∪ terminator uses) *)
        let z_still_used = ref false in
        let k2 = ref (idx + 1) in
        let stopped = ref false in
        while (not !stopped) && !k2 < n do
          if not removed.(!k2) then begin
            if List.mem z (uses instrs.(!k2)) then z_still_used := true;
            if redefines instrs.(!k2) [ z ] then stopped := true
          end;
          incr k2
        done;
        if
          (not !z_still_used)
          && (!stopped
             || (not (Ir.Liveness.mem_out live b.b_label z))
                && not (List.mem z (term_uses b.b_term)))
        then begin
          removed.(idx) <- true;
          changed := true;
          stats.ph_forwarded_moves <- stats.ph_forwarded_moves + 1
        end
    | _ -> ()
  done;
  if !changed then
    b.b_instrs <-
      List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs);
  !changed

(* Pattern 3: add x,y,z ; ... ; mov w,z  ==>  ... ; add x,y,w *)
let sink_adds stats klregs defs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Mov (_, Reg z) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false and changed = ref false in
  walk_defs defs instrs (fun def_before untouched remove idx ->
      match instrs.(idx) with
      | Mov (w, Reg z) when w <> z && not (Hashtbl.mem klregs z) -> (
          match def_before z with
          | -1 -> ()
          | j -> (
              match instrs.(j) with
              | Bin (op, _, x, y)
                when (not z_live.(idx)) && untouched j z (z :: w :: reg_list [ x; y ]) ->
                  removed.(j) <- true;
                  remove j z;
                  instrs.(idx) <- Bin (op, w, x, y);
                  changed := true;
                  stats.ph_sunk_adds <- stats.ph_sunk_adds + 1
              | _ -> ()))
      | _ -> ());
  if !changed then
    b.b_instrs <-
      List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs);
  !changed

(* A pattern reads the liveness of its input, which is the previous
   pattern's input unless that pattern rewrote something. *)
let run_func stats (f : func) =
  let klregs = keep_live_regs f in
  let defs =
    { last_def = Array.make f.fn_nreg (-1); last_use = Array.make f.fn_nreg (-1); base = 0 }
  in
  let live = ref None in
  let pass transform =
    let l = match !live with Some l -> l | None -> Ir.Liveness.compute f in
    let changed =
      List.fold_left
        (fun changed b -> transform l b || changed)
        false f.fn_blocks
    in
    live := if changed then None else Some l
  in
  pass (forward_moves stats klregs);
  pass (fuse_loads stats klregs defs);
  pass (sink_adds stats klregs defs)

(** Postprocess a whole register-allocated program; returns the rewrite
    counts. *)
let run (p : program) : stats =
  let stats = fresh_stats () in
  List.iter (run_func stats) p.p_funcs;
  stats
