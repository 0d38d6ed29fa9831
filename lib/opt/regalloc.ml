(** Linear-scan register allocation onto a finite machine register file.

    Register 0 stays the frame pointer.  Three registers are reserved as
    spill scratch; the rest are allocatable.  Intervals are conservative
    min-max position ranges from global liveness, so loop-carried values
    keep their register across the whole loop.

    Move and [Opaque] sources provide allocation hints, so the KEEP_LIVE
    result usually coalesces with its input — the gcc ["0" (same location)]
    constraint from the paper's implementation.  After assignment, [Opaque]
    is lowered: same location means it disappears entirely; otherwise it
    becomes a real move.

    A spilled value lives in a frame slot, which the VM stack scan sees, so
    spilling never endangers GC-safety — only speed. *)

open Ir.Instr

type assignment = Phys of reg | Slot of int

type result = {
  ra_spills : int;  (** number of spilled virtual registers *)
  ra_moves_coalesced : int;
}

exception Too_many_params of string

let nscratch = 3

(* [compare] on (end, vreg) pairs, the order of the active list *)
let by_end (e1, v1) (e2, v2) = if e1 <> e2 then Int.compare e1 e2 else Int.compare v1 v2

let run ?(nregs = 32) (f : func) : result =
  let avail = nregs - 1 - nscratch in
  if List.length f.fn_params > avail then raise (Too_many_params f.fn_name);
  (* rename incoming parameters so their long-lived homes are ordinary
     allocatable (and spillable) vregs *)
  let entry = List.hd f.fn_blocks in
  let param_map =
    List.map
      (fun p ->
        let a = f.fn_nreg in
        f.fn_nreg <- f.fn_nreg + 1;
        (p, a))
      f.fn_params
  in
  entry.b_instrs <-
    List.map (fun (p, a) -> Mov (p, Reg a)) param_map @ entry.b_instrs;
  f.fn_params <- List.map snd param_map;

  (* --- positions and intervals --- *)
  let live = Ir.Liveness.compute f in
  let nv = f.fn_nreg in
  let istart = Array.make nv max_int and iend = Array.make nv (-1) in
  let hint = Array.make nv (-1) in
  let touch r p =
    if p < istart.(r) then istart.(r) <- p;
    if p > iend.(r) then iend.(r) <- p
  in
  let pos = ref 0 in
  List.iter
    (fun b ->
      let bstart = !pos in
      (* a register live after an instruction at p is also touched at or
         before p (its definition here, or live-in at bstart) and after p
         (a later use here, or at tpos), so min-max intervals need no
         per-instruction live sets *)
      List.iter (fun r -> touch r bstart) (Ir.Liveness.live_in live b.b_label);
      List.iteri
        (fun idx i ->
          let p = !pos + idx in
          List.iter (fun r -> touch r p) (uses i);
          (match Ir.Instr.def i with Some d -> touch d p | None -> ());
          match i with
          | Mov (d, Reg s) | Opaque (d, Reg s) -> hint.(d) <- s
          | _ -> ())
        b.b_instrs;
      let tpos = !pos + List.length b.b_instrs in
      List.iter (fun r -> touch r tpos) (term_uses b.b_term);
      List.iter (fun r -> touch r tpos) (Ir.Liveness.live_out live b.b_label);
      pos := tpos + 1)
    f.fn_blocks;

  (* --- linear scan --- *)
  let assign = Array.make nv None in
  (* physical registers 1 .. avail are allocatable *)
  let free = Array.make (avail + 1) true in
  assign.(fp) <- Some (Phys 0);
  let active : (int * int) list ref = ref [] (* (end, vreg) sorted *) in
  let spill_slot v =
    let off = (f.fn_frame + 7) / 8 * 8 in
    f.fn_frame <- off + 8;
    assign.(v) <- Some (Slot off)
  in
  (* the intervals ending before p are a prefix of [active] *)
  let expire p =
    let rec drop = function
      | (e, v) :: rest when e < p ->
          (match assign.(v) with
          | Some (Phys r) when r <> 0 -> free.(r) <- true
          | _ -> ());
          drop rest
      | keep -> keep
    in
    active := drop !active
  in
  let intervals =
    List.sort
      (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2)
      (List.filter_map
         (fun v ->
           if v = fp || iend.(v) < 0 then None
           else Some (v, istart.(v), iend.(v)))
         (List.init nv Fun.id))
  in
  let coalesced = ref 0 and spills = ref 0 in
  List.iter
    (fun (v, s, e) ->
      expire s;
      (* try the hint first (copy coalescing): the hint register is usable
         when free, or when the hint's interval ends exactly where ours
         starts — i.e. its last use is the copy that defines us, the gcc
         "same location as the result" constraint *)
      let hinted =
        let h = hint.(v) in
        if h >= 0 && h < nv then
          match assign.(h) with
          | Some (Phys r) when r >= 1 && r <= avail && free.(r) -> Some r
          | Some (Phys r) when r >= 1 && r <= avail && iend.(h) <= s ->
              (* steal: drop the expiring hint interval from active so its
                 later expiry does not free the register under us *)
              active := List.filter (fun (_, x) -> x <> h) !active;
              Some r
          | _ -> None
        else None
      in
      let chosen =
        match hinted with
        | Some r ->
            incr coalesced;
            Some r
        | None ->
            let rec find r = if r > avail then None else if free.(r) then Some r else find (r + 1) in
            find 1
      in
      match chosen with
      | Some r ->
          free.(r) <- false;
          assign.(v) <- Some (Phys r);
          active := List.merge by_end [ (e, v) ] !active
      | None -> (
          (* spill the interval that ends last *)
          match List.rev !active with
          | (e', v') :: _ when e' > e -> (
              match assign.(v') with
              | Some (Phys r) ->
                  spill_slot v';
                  incr spills;
                  active := List.filter (fun (_, x) -> x <> v') !active;
                  assign.(v) <- Some (Phys r);
                  active := List.merge by_end [ (e, v) ] !active
              | _ ->
                  spill_slot v;
                  incr spills)
          | _ ->
              spill_slot v;
              incr spills))
    intervals;

  (* --- rewrite --- *)
  let scratch = Array.init nscratch (fun i -> nregs - 1 - i) in
  let loc v =
    match assign.(v) with
    | Some a -> a
    | None -> Phys scratch.(0) (* never-live register: any scratch will do *)
  in
  List.iter
    (fun b ->
      let out = ref [] in
      let push i = out := i :: !out in
      let next_scratch = ref 0 in
      let take_scratch () =
        let s = scratch.(!next_scratch) in
        next_scratch := !next_scratch + 1;
        s
      in
      let rewrite_instr i =
        next_scratch := 0;
        (* map each used spilled vreg to a scratch loaded just before; an
           instruction reads at most three registers *)
        let mapping = ref [] in
        let map_use r =
          match loc r with
          | Phys p -> Reg p
          | Slot off -> (
              match List.assoc_opt r !mapping with
              | Some s -> Reg s
              | None ->
                  let s = take_scratch () in
                  push (Load (W8, s, Reg 0, Imm off));
                  mapping := (r, s) :: !mapping;
                  Reg s)
        in
        let i' = map_instr_ops map_use i in
        match Ir.Instr.def i' with
        | Some d -> (
            match loc d with
            | Phys p ->
                let set_def = function
                  | Mov (_, s) -> Mov (p, s)
                  | Bin (op, _, a, b) -> Bin (op, p, a, b)
                  | Rel (op, _, a, b) -> Rel (op, p, a, b)
                  | Load (w, _, a, b) -> Load (w, p, a, b)
                  | Opaque (_, s) -> Opaque (p, s)
                  | Call (Some _, fn, n) -> Call (Some p, fn, n)
                  | other -> other
                in
                push (set_def i')
            | Slot off ->
                let s = take_scratch () in
                let set_def = function
                  | Mov (_, x) -> Mov (s, x)
                  | Bin (op, _, a, b) -> Bin (op, s, a, b)
                  | Rel (op, _, a, b) -> Rel (op, s, a, b)
                  | Load (w, _, a, b) -> Load (w, s, a, b)
                  | Opaque (_, x) -> Opaque (s, x)
                  | Call (Some _, fn, n) -> Call (Some s, fn, n)
                  | other -> other
                in
                push (set_def i');
                push (Store (W8, Reg s, Reg 0, Imm off)))
        | None -> push i'
      in
      List.iter rewrite_instr b.b_instrs;
      (* terminator operands *)
      next_scratch := 0;
      let map_use r =
        match loc r with
        | Phys p -> Reg p
        | Slot off ->
            let s = take_scratch () in
            push (Load (W8, s, Reg 0, Imm off));
            Reg s
      in
      b.b_term <- map_term_ops map_use b.b_term;
      b.b_instrs <- List.rev !out)
    f.fn_blocks;

  (* incoming argument registers must have physical homes *)
  f.fn_params <-
    List.map
      (fun a ->
        match loc a with
        | Phys p -> p
        | Slot _ -> raise (Too_many_params f.fn_name))
      f.fn_params;

  (* --- lower Opaque, drop no-op moves --- *)
  List.iter
    (fun b ->
      b.b_instrs <-
        List.filter_map
          (function
            | Opaque (d, Reg s) when d = s -> None
            | Opaque (d, s) -> Some (Mov (d, s))
            | Mov (d, Reg s) when d = s -> None
            | i -> Some i)
          b.b_instrs)
    f.fn_blocks;
  f.fn_nreg <- nregs;
  { ra_spills = !spills; ra_moves_coalesced = !coalesced }
