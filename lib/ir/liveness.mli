(** Backward liveness dataflow over the CFG.

    Used by dead-code elimination, register allocation, the
    pointer-disguising passes (whose safety conditions are phrased as
    "dead after this instruction") and the peephole postprocessor.

    Representation and costs.  [compute] numbers the function's blocks
    densely, and densely numbers its global registers: those some block
    reads before writing them, the only ones that can be live at a block
    boundary.  Each block keeps one bitset over the global registers for
    live-in and one for live-out, and the backward round-robin fixpoint
    costs O(blocks × globals / 63) word operations per round, plus
    O(instructions + fn_nreg) to set up.  Within a block, a {!cursor} is
    one mutable bitset over all [fn_nreg] registers stepped backward from
    live-out ∪ terminator uses: O(fn_nreg / 63) to start, O(1) per
    register an instruction touches.  Registers must be below [fn_nreg]. *)

type t

val compute : Instr.func -> t

val live_in : t -> Instr.label -> Instr.reg list
(** The registers live on entry to the block, ascending. *)

val live_out : t -> Instr.label -> Instr.reg list
(** The registers live on exit from the block (terminator uses not
    included), ascending. *)

val mem_out : t -> Instr.label -> Instr.reg -> bool
(** [mem_out t l r]: [r] is in [live_out t l]. *)

type cursor
(** The registers live at one point of a block, moved backward one
    instruction at a time. *)

val cursor : t -> Instr.block -> cursor
(** The point after the block's last instruction: live-out ∪ the
    terminator's uses. *)

val step : cursor -> Instr.instr -> unit
(** Move the cursor back over the instruction just before its point:
    drop its definition, add its uses. *)

val mem : cursor -> Instr.reg -> bool

val live_after :
  t -> Instr.block -> Instr.instr array -> (Instr.instr -> Instr.reg list) ->
  bool array
(** [live_after t b instrs regs], where [instrs] holds [b]'s instructions:
    element [i] says whether any register of [regs instrs.(i)] is live
    right after instruction [i].  One backward cursor pass. *)
