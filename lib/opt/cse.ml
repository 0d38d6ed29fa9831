(** Block-local common subexpression elimination over pure ALU results.

    [Opaque] results are never CSE sources or targets: "the compiler loses
    all information about how the resulting value was computed, thus
    preventing it from discarding the value and subsequently recomputing
    it" — and conversely from reusing an older computation for it.

    Linear in the block: a definition of [r] kills only the entries that
    read [r] or hold their value in it, found through a reverse index
    instead of a scan of every available expression. *)

open Ir.Instr

type key = K_bin of binop * operand * operand | K_rel of relop * operand * operand

let reads k r =
  match k with K_bin (_, a, b) | K_rel (_, a, b) -> a = Reg r || b = Reg r

(* [index.(r)]: the keys entered while reading r or held in r, since the
   block began.  An entry goes stale when its key is killed or re-entered
   under another register, so [kill] re-checks each one against [avail].
   [touched] lists the registers whose entry the block set. *)
let run_block index touched (b : block) =
  let avail : (key, reg) Hashtbl.t = Hashtbl.create 16 in
  let add_index r k =
    (match index.(r) with [] -> touched := r :: !touched | _ :: _ -> ());
    index.(r) <- k :: index.(r)
  in
  let kill r =
    match index.(r) with
    | [] -> ()
    | keys ->
        index.(r) <- [];
        List.iter
          (fun k ->
            match Hashtbl.find_opt avail k with
            | Some v when v = r || reads k r -> Hashtbl.remove avail k
            | _ -> ())
          keys
  in
  let record k d =
    Hashtbl.replace avail k d;
    add_index d k;
    match k with
    | K_bin (_, a, b) | K_rel (_, a, b) ->
        iter_op_uses (fun r -> add_index r k) a;
        iter_op_uses (fun r -> add_index r k) b
  in
  let instrs =
    List.map
      (fun i ->
        let key =
          match i with
          | Bin (op, _, a, b) -> Some (K_bin (op, a, b))
          | Rel (op, _, a, b) -> Some (K_rel (op, a, b))
          | _ -> None
        in
        let i =
          match (i, key) with
          | (Bin (_, d, _, _) | Rel (_, d, _, _)), Some k -> (
              match Hashtbl.find_opt avail k with
              | Some r when r <> d -> Mov (d, Reg r)
              | _ -> i)
          | _ -> i
        in
        let d = def_reg i in
        if d >= 0 then kill d;
        (* [d = d + c] reads the old [d]: the key names a value [d] no
           longer holds, so it is not entered *)
        (match (i, key) with
        | (Bin (_, d, _, _) | Rel (_, d, _, _)), Some k when not (reads k d) ->
            record k d
        | _ -> ());
        i)
      b.b_instrs
  in
  b.b_instrs <- instrs;
  List.iter (fun r -> index.(r) <- []) !touched;
  touched := []

let run (f : func) =
  let index = Array.make f.fn_nreg [] and touched = ref [] in
  List.iter (run_block index touched) f.fn_blocks
