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

(* Pattern 1: add x,y,z ; ... ; ld d,[z+0]  ==>  ld d,[x+y].
   z dead after the load, z unused in between and after, x,y stable. *)
let fuse_loads stats klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Load (_, _, Reg z, Imm 0) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Load (w, d, Reg z, Imm 0) when not (Hashtbl.mem klregs z) ->
        (* find the defining add *)
        let rec find_def j =
          if j < 0 then None
          else if removed.(j) then find_def (j - 1)
          else
            match instrs.(j) with
            | Bin (Add, z', x, y) when z' = z -> Some (j, x, y)
            | i when def i = Some z -> None
            | _ -> find_def (j - 1)
        in
        (match find_def (idx - 1) with
        | Some (j, x, y) ->
            let srcs = reg_list [ x; y ] in
            let ok = ref (not z_live.(idx)) in
            (* z unused and x,y unchanged strictly between j and idx *)
            for k = j + 1 to idx - 1 do
              if not removed.(k) then begin
                if List.mem z (uses instrs.(k)) then ok := false;
                if redefines instrs.(k) (z :: srcs) then ok := false
              end
            done;
            if !ok then begin
              removed.(j) <- true;
              instrs.(idx) <- Load (w, d, x, y);
              stats.ph_fused_loads <- stats.ph_fused_loads + 1
            end
        | None -> ())
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

(* Pattern 2: mov z,x forwarding — rewrite in-block uses of z to x while x
   and z are unchanged; drop the mov when z ends up dead. *)
let forward_moves stats klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Mov (z, Reg x) when z <> x && not (Hashtbl.mem klregs z) ->
        (* rewrite following uses of z to x until z or x is redefined *)
        let stop = ref false in
        let k = ref (idx + 1) in
        while (not !stop) && !k < n do
          if not removed.(!k) then begin
            let i = instrs.(!k) in
            if List.mem z (uses i) then
              instrs.(!k) <-
                map_instr_ops (fun r -> if r = z then Reg x else Reg r) i;
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
          stats.ph_forwarded_moves <- stats.ph_forwarded_moves + 1
        end
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

(* Pattern 3: add x,y,z ; ... ; mov w,z  ==>  ... ; add x,y,w *)
let sink_adds stats klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Mov (_, Reg z) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Mov (w, Reg z) when w <> z && not (Hashtbl.mem klregs z) ->
        let rec find_def j =
          if j < 0 then None
          else if removed.(j) then find_def (j - 1)
          else
            match instrs.(j) with
            | Bin (op, z', x, y) when z' = z -> Some (j, op, x, y)
            | i when def i = Some z -> None
            | _ -> find_def (j - 1)
        in
        (match find_def (idx - 1) with
        | Some (j, op, x, y) ->
            let srcs = reg_list [ x; y ] in
            let ok = ref (not z_live.(idx)) in
            for k = j + 1 to idx - 1 do
              if not removed.(k) then begin
                if List.mem z (uses instrs.(k)) then ok := false;
                if redefines instrs.(k) (z :: w :: srcs) then ok := false
              end
            done;
            if !ok then begin
              removed.(j) <- true;
              instrs.(idx) <- Bin (op, w, x, y);
              stats.ph_sunk_adds <- stats.ph_sunk_adds + 1
            end
        | None -> ())
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

let run_func stats (f : func) =
  let klregs = keep_live_regs f in
  let pass transform =
    let live = Ir.Liveness.compute f in
    List.iter (transform stats klregs live) f.fn_blocks
  in
  pass forward_moves;
  pass fuse_loads;
  pass sink_adds

(** Postprocess a whole register-allocated program; returns the rewrite
    counts. *)
let run (p : program) : stats =
  let stats = fresh_stats () in
  List.iter (run_func stats) p.p_funcs;
  stats
