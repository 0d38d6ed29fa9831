(** Three-address intermediate representation.

    The IR doubles as the "assembly" of the paper's discussion: after
    register allocation the same instruction set runs on the VM with a
    finite register file, and the peephole postprocessor rewrites it the
    way the paper's SPARC postprocessor rewrites assembly.

    Two pseudo-instructions implement KEEP_LIVE:
    - [KeepLive v]: the empty asm sequence — costs nothing, but is a *use*
      of [v], pinning it live to this point (the "special comment understood
      by the peephole optimizer");
    - [Opaque (d, s)]: d receives the value of s, and the compiler loses
      all information about how it was computed; optimizer passes must not
      look through it.  Lowered to a plain [Mov] after optimization, which
      register-allocation coalesces away (the gcc "0" constraint). *)

type reg = int

type label = int

type operand =
  | Reg of reg
  | Imm of int
  | Glob of int  (** offset into the statics image, resolved at load time *)

type width = W1 | W2 | W4 | W8

let bytes_of_width = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8

let width_of_bytes = function
  | 1 -> W1
  | 2 -> W2
  | 4 -> W4
  | 8 -> W8
  | n -> invalid_arg (Printf.sprintf "width_of_bytes %d" n)

type binop = Add | Sub | Mul | Div | Mod | Shl | Shr | And | Or | Xor

type relop = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Rel of relop * reg * operand * operand  (** dst = (a rel b) ? 1 : 0 *)
  | Load of width * reg * operand * operand  (** dst = mem\[base + off\] *)
  | Store of width * operand * operand * operand
      (** mem\[base + off\] = src *)
  | Push of operand  (** pass the next argument of the upcoming call *)
  | Call of reg option * string * int  (** nargs, passed via [Push] *)
  | KeepLive of operand
  | Opaque of reg * operand

type terminator =
  | Jmp of label
  | Br of operand * label * label  (** nonzero -> first, else second *)
  | Ret of operand option

type block = {
  b_label : label;
  mutable b_instrs : instr list;  (** in execution order *)
  mutable b_term : terminator;
}

type func = {
  fn_name : string;
  mutable fn_params : reg list;  (** registers receiving the arguments *)
  fn_ret_void : bool;
  mutable fn_blocks : block list;  (** entry block first *)
  mutable fn_nreg : int;  (** number of virtual registers in use *)
  mutable fn_frame : int;  (** frame size in bytes (locals + spills) *)
}

type program = {
  p_funcs : func list;
  p_statics : Bytes.t;  (** initial image of the statics region *)
  p_relocs : (int * int) list;
      (** (slot, target): statics slots holding pointers into the statics
          region itself, fixed up with the base address at load time *)
}

(* The frame pointer is virtual register 0 in every function; the VM
   initializes it to the frame base on entry. *)
let fp = 0

let first_vreg = 1

(* ------------------------------------------------------------------ *)
(* Uses / defs                                                         *)
(* ------------------------------------------------------------------ *)

let op_uses = function Reg r -> [ r ] | Imm _ | Glob _ -> []

let uses = function
  | Mov (_, s) -> op_uses s
  | Bin (_, _, a, b) | Rel (_, _, a, b) | Load (_, _, a, b) ->
      op_uses a @ op_uses b
  | Store (_, src, base, off) -> op_uses src @ op_uses base @ op_uses off
  | Push v -> op_uses v
  | Call (_, _, _) -> []
  | KeepLive v -> op_uses v
  | Opaque (_, s) -> op_uses s

let iter_op_uses f = function Reg r -> f r | Imm _ | Glob _ -> ()

(* [uses] without building the list *)
let iter_uses f = function
  | Mov (_, s) | Push s | KeepLive s | Opaque (_, s) -> iter_op_uses f s
  | Bin (_, _, a, b) | Rel (_, _, a, b) | Load (_, _, a, b) ->
      iter_op_uses f a;
      iter_op_uses f b
  | Store (_, src, base, off) ->
      iter_op_uses f src;
      iter_op_uses f base;
      iter_op_uses f off
  | Call (_, _, _) -> ()

(* the register an instruction writes, or -1 *)
let def_reg = function
  | Mov (d, _) | Bin (_, d, _, _) | Rel (_, d, _, _) | Load (_, d, _, _)
  | Opaque (d, _) | Call (Some d, _, _) ->
      d
  | Call (None, _, _) | Store _ | Push _ | KeepLive _ -> -1

let def i = match def_reg i with -1 -> None | d -> Some d

let term_uses = function
  | Jmp _ -> []
  | Br (c, _, _) -> op_uses c
  | Ret (Some v) -> op_uses v
  | Ret None -> []

let successors = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> [ l1; l2 ]
  | Ret _ -> []

(* Substitute registers in operands (used by copy propagation and the
   peephole). *)
let map_op f = function
  | Reg r -> f r
  | (Imm _ | Glob _) as o -> o

let map_instr_ops f = function
  | Mov (d, s) -> Mov (d, map_op f s)
  | Bin (op, d, a, b) -> Bin (op, d, map_op f a, map_op f b)
  | Rel (op, d, a, b) -> Rel (op, d, map_op f a, map_op f b)
  | Load (w, d, a, b) -> Load (w, d, map_op f a, map_op f b)
  | Store (w, s, a, b) -> Store (w, map_op f s, map_op f a, map_op f b)
  | Push v -> Push (map_op f v)
  | Call (d, fn, n) -> Call (d, fn, n)
  | KeepLive v -> KeepLive (map_op f v)
  | Opaque (d, s) -> Opaque (d, map_op f s)

let map_term_ops f = function
  | Jmp l -> Jmp l
  | Br (c, l1, l2) -> Br (map_op f c, l1, l2)
  | Ret (Some v) -> Ret (Some (map_op f v))
  | Ret None -> Ret None

(* Has this instruction side effects that forbid removing it even when the
   destination is dead? *)
let has_side_effect = function
  | Store _ | Call _ | Push _ | KeepLive _ -> true
  | Opaque _ -> false (* removable if the result is dead *)
  | Mov _ | Bin _ | Rel _ | Load _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Shl -> "shl"
  | Shr -> "shr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let relop_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let pp_op fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm n -> Format.fprintf fmt "%d" n
  | Glob g -> Format.fprintf fmt "@%d" g

let width_name = function W1 -> "b" | W2 -> "h" | W4 -> "w" | W8 -> "d"

let pp_instr fmt = function
  | Mov (d, s) -> Format.fprintf fmt "mov   r%d, %a" d pp_op s
  | Bin (op, d, a, b) ->
      Format.fprintf fmt "%-5s r%d, %a, %a" (binop_name op) d pp_op a pp_op b
  | Rel (op, d, a, b) ->
      Format.fprintf fmt "set%s r%d, %a, %a" (relop_name op) d pp_op a pp_op b
  | Load (w, d, a, b) ->
      Format.fprintf fmt "ld%s   r%d, [%a + %a]" (width_name w) d pp_op a
        pp_op b
  | Store (w, s, a, b) ->
      Format.fprintf fmt "st%s   %a, [%a + %a]" (width_name w) pp_op s pp_op a
        pp_op b
  | Push v -> Format.fprintf fmt "push  %a" pp_op v
  | Call (Some d, fn, n) -> Format.fprintf fmt "call  r%d, %s/%d" d fn n
  | Call (None, fn, n) -> Format.fprintf fmt "call  %s/%d" fn n
  | KeepLive v -> Format.fprintf fmt "keep  %a" pp_op v
  | Opaque (d, s) -> Format.fprintf fmt "opaq  r%d, %a" d pp_op s

let pp_term fmt = function
  | Jmp l -> Format.fprintf fmt "jmp   L%d" l
  | Br (c, l1, l2) -> Format.fprintf fmt "br    %a, L%d, L%d" pp_op c l1 l2
  | Ret (Some v) -> Format.fprintf fmt "ret   %a" pp_op v
  | Ret None -> Format.fprintf fmt "ret"

let pp_block fmt b =
  Format.fprintf fmt "L%d:@." b.b_label;
  List.iter (fun i -> Format.fprintf fmt "  %a@." pp_instr i) b.b_instrs;
  Format.fprintf fmt "  %a@." pp_term b.b_term

let pp_func fmt f =
  Format.fprintf fmt "%s(%s): frame=%d@." f.fn_name
    (String.concat ", " (List.map (Printf.sprintf "r%d") f.fn_params))
    f.fn_frame;
  List.iter (pp_block fmt) f.fn_blocks

(** Static size of a function, in instructions (terminators included) —
    the paper's object-code-size metric.  [KeepLive] markers assemble to an
    empty sequence (the paper's empty inline asm), so they have no size. *)
let code_size f =
  let real = function KeepLive _ -> false | _ -> true in
  List.fold_left
    (fun acc b -> acc + List.length (List.filter real b.b_instrs) + 1)
    0 f.fn_blocks

let program_size p = List.fold_left (fun acc f -> acc + code_size f) 0 p.p_funcs
