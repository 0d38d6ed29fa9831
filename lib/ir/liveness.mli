(** Backward liveness dataflow over the CFG.

    Used by dead-code elimination, register allocation, induction, the
    pointer-disguising passes (whose safety conditions are phrased as
    "dead after this instruction") and the peephole postprocessor.  Each
    computes it once per run and again only after a rewrite made it
    stale: the disguising pass between its two shapes only when the first
    folded something, the peephole between patterns only when the
    previous one rewrote something, induction only when the function has
    a loop of its shape, and dead-code elimination starts another round
    only when it removed an instruction reading a register for which
    {!may_cross_blocks} holds.  So the optimizing pipeline computes it at
    least six times per function: twice for the disguising pass, three
    times for dead-code elimination, once for register allocation.  A
    displacement fold, a loop and each further dead-code round add one.

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

val may_cross_blocks : t -> Instr.reg -> bool
(** [r] is read before it is written in some block: only such a register
    can be live at a block boundary.  Deleting dead instructions that read
    no such register leaves every block's live-in and live-out sets as
    they were. *)

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
