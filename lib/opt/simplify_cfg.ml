(** Control-flow graph cleanup: branch-to-branch forwarding, merging of
    single-predecessor straight-line successors, and folding of two-way
    branches with identical targets.

    Part of the conventional optimizer; it has no interaction with
    GC-safety (no values move), but without it the structured-statement
    lowering leaves chains of empty blocks whose jumps would inflate the
    cycle counts of every configuration equally. *)

open Ir.Instr

let block_by_label f =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.b_label b) f.fn_blocks;
  tbl

(* the target of an empty forwarding block *)
let forwards tbl l =
  match Hashtbl.find_opt tbl l with
  | Some { b_instrs = []; b_term = Jmp l2; _ } -> Some l2
  | _ -> None

(* resolve a jump target through chains of empty forwarding blocks,
   stopping at the first label seen twice ([visited] starts with the
   block being rewritten) *)
let rec walk tbl visited l =
  if List.mem l visited then l
  else
    match forwards tbl l with
    | Some l2 -> walk tbl (l :: visited) l2
    | None -> l

(* where a chain of forwarding blocks leads, memoized per label *)
type chain =
  | Visiting  (** on the chain being walked *)
  | Ends of label  (** at this block, which did not forward when seen *)
  | Cycles  (** into a cycle of forwarding blocks *)

(* The end of the chain from [l], settling every label on the way.  An
   [Ends t] entry goes stale when [t] later starts forwarding (an empty
   block whose two-way branch folds to a jump); the chain then runs on
   through [t].  [Cycles] never goes stale: rewriting a jump on a cycle
   retargets it to a label of that cycle. *)
let chain_end tbl chains l =
  let settle path c =
    List.iter (fun l -> Hashtbl.replace chains l c) path;
    c
  in
  let rec go path l =
    match Hashtbl.find_opt chains l with
    | Some (Visiting | Cycles) -> settle path Cycles
    | Some (Ends t) when forwards tbl t = None -> settle path (Ends t)
    | _ -> (
        match forwards tbl l with
        | Some l2 ->
            Hashtbl.replace chains l Visiting;
            go (l :: path) l2
        | None -> settle path (Ends l))
  in
  go [] l

(* An acyclic chain ends where it ends whichever block jumps into it: the
   block being rewritten can lie on it only as its end.  A chain that runs
   into a cycle takes the walk, whose answer depends on where it started. *)
let resolve tbl chains from l =
  match chain_end tbl chains l with
  | Ends t -> t
  | Visiting | Cycles -> walk tbl [ from ] l

let forward_jumps (f : func) =
  let tbl = block_by_label f in
  let chains = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let resolve = resolve tbl chains b.b_label in
      b.b_term <-
        (match b.b_term with
        | Jmp l -> Jmp (resolve l)
        | Br (c, l1, l2) ->
            let l1 = resolve l1 and l2 = resolve l2 in
            if l1 = l2 then Jmp l1 else Br (c, l1, l2)
        | Ret _ as t -> t))
    f.fn_blocks

let pred_counts (f : func) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
        (successors b.b_term))
    f.fn_blocks;
  tbl

(* merge [A: ...; jmp B] with B when B has no other predecessors *)
let merge_chains (f : func) =
  let entry_label =
    match f.fn_blocks with b :: _ -> b.b_label | [] -> -1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let preds = pred_counts f in
    let by_label = block_by_label f in
    let absorbed = Hashtbl.create 8 in
    List.iter
      (fun a ->
        if not (Hashtbl.mem absorbed a.b_label) then
          match a.b_term with
          | Jmp l
            when l <> a.b_label && l <> entry_label
                 && Hashtbl.find_opt preds l = Some 1
                 && not (Hashtbl.mem absorbed l) -> (
              match Hashtbl.find_opt by_label l with
              | Some b ->
                  a.b_instrs <- a.b_instrs @ b.b_instrs;
                  a.b_term <- b.b_term;
                  Hashtbl.replace absorbed l ();
                  changed := true
              | None -> ())
          | _ -> ())
      f.fn_blocks;
    if Hashtbl.length absorbed > 0 then
      f.fn_blocks <-
        List.filter (fun b -> not (Hashtbl.mem absorbed b.b_label)) f.fn_blocks
  done

let run (f : func) =
  forward_jumps f;
  Dce.prune_unreachable f;
  merge_chains f
