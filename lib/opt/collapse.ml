(** Adjacent move collapsing (standard backend cleanup).

    [def t; mov v, t] with [t] used nowhere else becomes a single
    instruction defining [v] directly.  Adjacency makes the rewrite
    unconditionally sound: any read of [v] by the defining instruction sees
    the old value either way.  [Opaque] definitions collapse too — the
    result is still opaque, only its home changes, which is exactly the
    "same location" constraint of the paper's gcc implementation.

    Without this pass our baseline would be artificially sloppy and the
    peephole postprocessor would "win back" time the paper's baseline
    compiler never lost. *)

open Ir.Instr

(* how many times each register is read, terminators included *)
let use_counts (f : func) =
  let counts = Array.make f.fn_nreg 0 in
  let bump r = counts.(r) <- counts.(r) + 1 in
  List.iter
    (fun b ->
      List.iter (iter_uses bump) b.b_instrs;
      List.iter bump (term_uses b.b_term))
    f.fn_blocks;
  counts

let set_def d = function
  | Mov (_, s) -> Mov (d, s)
  | Bin (op, _, a, b) -> Bin (op, d, a, b)
  | Rel (op, _, a, b) -> Rel (op, d, a, b)
  | Load (w, _, a, b) -> Load (w, d, a, b)
  | Opaque (_, s) -> Opaque (d, s)
  | Call (Some _, fn, n) -> Call (Some d, fn, n)
  | i -> i

let run (f : func) =
  let uses_of = use_counts f in
  List.iter
    (fun b ->
      let rec rewrite = function
        | i1 :: Mov (v, Reg t) :: rest
          when def i1 = Some t && t <> v && uses_of.(t) = 1 ->
            set_def v i1 :: rewrite rest
        | i :: rest -> i :: rewrite rest
        | [] -> []
      in
      b.b_instrs <- rewrite b.b_instrs)
    f.fn_blocks
