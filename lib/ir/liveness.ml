(** Backward liveness dataflow over the CFG.

    Used by dead-code elimination, the register allocator, the
    pointer-disguising optimizer (whose safety conditions are phrased in
    terms of "dead after this instruction") and the peephole postprocessor
    ("a simple global, intraprocedural analysis that allows us to identify
    possible uses of register values").

    The sets are dense bit vectors.  Only a register that some block reads
    before writing it can be live at a block boundary, so those "global"
    registers get dense numbers of their own and the per-block sets range
    over them alone; a block-local temporary costs the fixpoint nothing. *)

open Instr

(* A register set is [nw] words of an [int array] from some base word:
   register [r] is bit [r mod bits] of word [base + r / bits]. *)
let bits = Sys.int_size

let words n = (n + bits - 1) / bits

let mem_bit s base r = (s.(base + (r / bits)) lsr (r mod bits)) land 1 <> 0

let add_bit s base r =
  let w = base + (r / bits) in
  s.(w) <- s.(w) lor (1 lsl (r mod bits))

let remove_bit s base r =
  let w = base + (r / bits) in
  s.(w) <- s.(w) land lnot (1 lsl (r mod bits))

(* the members of the [nw]-word set at [base], ascending, through [f] *)
let iter_bits f s base nw =
  for w = 0 to nw - 1 do
    let x = ref s.(base + w) and r = ref (w * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !r;
      x := !x lsr 1;
      incr r
    done
  done

type t = {
  first_label : label;
  index : int array;  (** label - first_label -> dense block number, or -1 *)
  global : int array;  (** register -> dense global number, or -1 *)
  reg_of : int array;  (** dense global number -> register *)
  nw : int;  (** words per block set *)
  live_in : int array;  (** block k's set is the [nw] words from [k * nw] *)
  live_out : int array;
  nreg : int;
}

let block_of t l =
  let i = l - t.first_label in
  if i >= 0 && i < Array.length t.index then t.index.(i) else -1

let compute (f : func) : t =
  let blocks = Array.of_list f.fn_blocks in
  let nb = Array.length blocks in
  let nreg = f.fn_nreg in
  (* the lowering numbers each function's labels from 0, so the label
     range is about as long as the block list *)
  let first_label = ref 0 and last_label = ref (-1) in
  Array.iter
    (fun b ->
      first_label := min !first_label b.b_label;
      last_label := max !last_label b.b_label)
    blocks;
  let first_label = !first_label in
  let index = Array.make (!last_label - first_label + 1) (-1) in
  Array.iteri (fun k b -> index.(b.b_label - first_label) <- k) blocks;
  (* gen: registers read before any write in the block.  [defined.(r) = k]
     once block k has written r; [global.(r)] is 0 for a register in some
     gen set until it is numbered below. *)
  let defined = Array.make nreg (-1) in
  let global = Array.make nreg (-1) in
  let gen = Array.make nb [] in
  Array.iteri
    (fun k b ->
      let see r =
        if defined.(r) <> k then begin
          global.(r) <- 0;
          gen.(k) <- r :: gen.(k)
        end
      in
      List.iter
        (fun i ->
          iter_uses see i;
          let d = def_reg i in
          if d >= 0 then defined.(d) <- k)
        b.b_instrs;
      List.iter see (term_uses b.b_term))
    blocks;
  let ng = ref 0 in
  Array.iteri
    (fun r g ->
      if g = 0 then begin
        global.(r) <- !ng;
        incr ng
      end)
    global;
  let reg_of = Array.make !ng 0 in
  Array.iteri (fun r g -> if g >= 0 then reg_of.(g) <- r) global;
  let nw = words !ng in
  (* kill: the global registers the block writes *)
  let gen_set = Array.make (nb * nw) 0 and kill = Array.make (nb * nw) 0 in
  Array.iteri
    (fun k b ->
      List.iter (fun r -> add_bit gen_set (k * nw) global.(r)) gen.(k);
      List.iter
        (fun i ->
          let d = def_reg i in
          if d >= 0 && global.(d) >= 0 then add_bit kill (k * nw) global.(d))
        b.b_instrs)
    blocks;
  let t =
    {
      first_label;
      index;
      global;
      reg_of;
      nw;
      live_in = Array.make (nb * nw) 0;
      live_out = Array.make (nb * nw) 0;
      nreg;
    }
  in
  (* a terminator has at most two successors: -1 for none, or for a label
     outside the function *)
  let succ1 = Array.make nb (-1) and succ2 = Array.make nb (-1) in
  Array.iteri
    (fun k b ->
      match b.b_term with
      | Jmp l -> succ1.(k) <- block_of t l
      | Br (_, l1, l2) ->
          succ1.(k) <- block_of t l1;
          succ2.(k) <- block_of t l2
      | Ret _ -> ())
    blocks;
  let live_in = t.live_in and live_out = t.live_out in
  let changed = ref true in
  while !changed do
    changed := false;
    (* iterate in reverse order for faster convergence *)
    for k = nb - 1 downto 0 do
      let s1 = succ1.(k) and s2 = succ2.(k) in
      for w = 0 to nw - 1 do
        let x = (k * nw) + w in
        let o =
          (if s1 < 0 then 0 else live_in.((s1 * nw) + w))
          lor if s2 < 0 then 0 else live_in.((s2 * nw) + w)
        in
        if o <> live_out.(x) then begin
          live_out.(x) <- o;
          changed := true
        end;
        let i = gen_set.(x) lor (o land lnot kill.(x)) in
        if i <> live_in.(x) then begin
          live_in.(x) <- i;
          changed := true
        end
      done
    done
  done;
  t

let regs t sets l =
  match block_of t l with
  | -1 -> []
  | k ->
      let acc = ref [] in
      iter_bits (fun g -> acc := t.reg_of.(g) :: !acc) sets (k * t.nw) t.nw;
      List.rev !acc

let live_in t l = regs t t.live_in l

let live_out t l = regs t t.live_out l

let may_cross_blocks t r = t.global.(r) >= 0

let mem_out t l r =
  t.global.(r) >= 0
  &&
  match block_of t l with
  | -1 -> false
  | k -> mem_bit t.live_out (k * t.nw) t.global.(r)

(* One bitset over every register, stepped backward through a block. *)
type cursor = int array

let cursor t (b : block) : cursor =
  let c = Array.make (words t.nreg) 0 in
  (match block_of t b.b_label with
  | -1 -> ()
  | k -> iter_bits (fun g -> add_bit c 0 t.reg_of.(g)) t.live_out (k * t.nw) t.nw);
  List.iter (add_bit c 0) (term_uses b.b_term);
  c

let mem (c : cursor) r = mem_bit c 0 r

let step (c : cursor) i =
  let d = def_reg i in
  if d >= 0 then remove_bit c 0 d;
  iter_uses (add_bit c 0) i

let live_after t (b : block) instrs regs =
  let n = Array.length instrs in
  let out = Array.make n false in
  let c = cursor t b in
  for idx = n - 1 downto 0 do
    out.(idx) <- List.exists (mem c) (regs instrs.(idx));
    step c instrs.(idx)
  done;
  out
