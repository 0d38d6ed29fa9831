(** Block-local copy and constant propagation.

    [Mov (d, s)] makes later uses of [d] use [s] directly, as long as
    neither is redefined.  [Opaque] definitions are never propagated:
    KEEP_LIVE results must remain explicitly stored, and the compiler has
    "lost all information about how the resulting value was computed".

    Linear in the block: the mappings are dense tables over the
    function's registers, and a definition of [r] drops only the mappings
    whose source is [r], found through a reverse index instead of a scan
    of every mapping. *)

open Ir.Instr

let run (f : func) =
  let nreg = f.fn_nreg in
  (* env.(r): what later uses of r read instead; [Reg r] when unmapped *)
  let env = Array.init nreg (fun r -> Reg r) in
  (* copies.(s): registers mapped to [Reg s] since s was last defined.  An
     entry goes stale when its register is remapped, so [invalidate]
     re-checks each one against [env]. *)
  let copies = Array.make nreg [] in
  (* the registers whose [env] or [copies] entry this block set *)
  let touched = ref [] in
  let invalidate r =
    env.(r) <- Reg r;
    List.iter
      (fun d -> match env.(d) with Reg s when s = r -> env.(d) <- Reg d | _ -> ())
      copies.(r);
    copies.(r) <- []
  in
  let subst r = env.(r) in
  List.iter
    (fun b ->
      let instrs =
        List.map
          (fun i ->
            let i = map_instr_ops subst i in
            let d = def_reg i in
            if d >= 0 then invalidate d;
            (match i with
            | Mov (d, s) when s <> Reg d ->
                env.(d) <- s;
                touched := d :: !touched;
                (match s with
                | Reg s ->
                    copies.(s) <- d :: copies.(s);
                    touched := s :: !touched
                | Imm _ | Glob _ -> ())
            | _ -> ());
            i)
          b.b_instrs
      in
      b.b_instrs <- instrs;
      b.b_term <- map_term_ops subst b.b_term;
      List.iter
        (fun r ->
          env.(r) <- Reg r;
          copies.(r) <- [])
        !touched;
      touched := [])
    f.fn_blocks
