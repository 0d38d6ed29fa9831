(** Liveness-based dead code elimination.

    Removes pure instructions whose result is dead.  [Opaque] definitions
    with dead results are removable (they have no observable effect); the
    [KeepLive] marker itself is a side effect and always survives — it is
    the compiler's promise to the collector. *)

open Ir.Instr

(* One backward cursor sweep over [b] from its live-out set.  A removed
   instruction adds no uses, so a whole dead chain within the block goes
   in one sweep.  Returns whether a removed instruction read a register
   that can be live at a block boundary. *)
let sweep live (b : block) =
  let c = Ir.Liveness.cursor live b in
  let removed = ref false and stale = ref false in
  let keep =
    List.fold_left
      (fun keep i ->
        match Ir.Instr.def i with
        | Some d when (not (Ir.Liveness.mem c d)) && not (has_side_effect i) ->
            removed := true;
            iter_uses
              (fun r -> if Ir.Liveness.may_cross_blocks live r then stale := true)
              i;
            keep
        | _ ->
            Ir.Liveness.step c i;
            i :: keep)
      [] (List.rev b.b_instrs)
  in
  if !removed then b.b_instrs <- keep;
  !stale

(* Removing a dead instruction only shrinks liveness, so no removal makes
   another instruction live again and the fixpoint does not depend on the
   order of removals.  Another round catches chains that cross blocks, so
   it runs only when a removal read a register that can be live at a
   block boundary.  Otherwise every block's live-out set is what it was,
   each kept instruction meets the same cursor as in this round, and the
   round would remove nothing. *)
let run (f : func) =
  let stale = ref true in
  while !stale do
    let live = Ir.Liveness.compute f in
    stale :=
      List.fold_left (fun stale b -> sweep live b || stale) false f.fn_blocks
  done

(** Also drop trivially unreachable blocks (no predecessors, not entry). *)
let prune_unreachable (f : func) =
  match f.fn_blocks with
  | [] -> ()
  | entry :: _ ->
      let reachable = Hashtbl.create 16 in
      let by_label = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace by_label b.b_label b) f.fn_blocks;
      let rec visit l =
        if not (Hashtbl.mem reachable l) then begin
          Hashtbl.replace reachable l ();
          match Hashtbl.find_opt by_label l with
          | Some b -> List.iter visit (successors b.b_term)
          | None -> ()
        end
      in
      visit entry.b_label;
      f.fn_blocks <-
        List.filter (fun b -> Hashtbl.mem reachable b.b_label) f.fn_blocks
