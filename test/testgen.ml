(* Random mini-C program generator for differential testing.

   Generated programs are strictly conforming within the subset: pointer
   arithmetic stays inside the heap array it derives from (so checked mode
   must accept them), divisors are forced odd, shifts are bounded.  Every
   program prints a digest of all its state at the end, so two builds
   agree iff their observable behaviour agrees.

   [ir_func] generates IR functions directly, for passes checked against
   a reference implementation rather than by running the result. *)

open QCheck.Gen

let int_vars = [ "a"; "b"; "c"; "d" ]

let heap_len = 16 (* elements of the heap array h *)

(* integer expressions over the scalar variables *)
let rec int_expr depth st =
  if depth = 0 then
    (oneof
       [
         map string_of_int (int_range (-50) 50);
         oneofl int_vars;
         return "g0";
         return "g1";
       ])
      st
  else
    (frequency
       [
         (2, int_expr 0);
         (2, map2 (Printf.sprintf "(%s + %s)") (int_expr (depth - 1)) (int_expr (depth - 1)));
         (2, map2 (Printf.sprintf "(%s - %s)") (int_expr (depth - 1)) (int_expr (depth - 1)));
         (1, map2 (Printf.sprintf "(%s * %s)") (int_expr (depth - 1)) (int_expr 0));
         (1, map2 (Printf.sprintf "(%s / (%s | 1))") (int_expr (depth - 1)) (int_expr 0));
         (1, map2 (Printf.sprintf "(%s %% (%s | 1))") (int_expr (depth - 1)) (int_expr 0));
         (1, map2 (Printf.sprintf "(%s & %s)") (int_expr (depth - 1)) (int_expr (depth - 1)));
         (1, map2 (Printf.sprintf "(%s ^ %s)") (int_expr (depth - 1)) (int_expr (depth - 1)));
         (1, map (Printf.sprintf "(%s << 2)") (int_expr (depth - 1)));
         (1, map (Printf.sprintf "(%s >> 3)") (int_expr (depth - 1)));
         (1, map2 (Printf.sprintf "(%s < %s)") (int_expr (depth - 1)) (int_expr (depth - 1)));
         (1, map2 (Printf.sprintf "(%s == %s)") (int_expr 0) (int_expr 0));
         (1, map (Printf.sprintf "(- %s)") (int_expr (depth - 1)));
         (1, map (Printf.sprintf "h[(%s) & 15]") (int_expr (depth - 1)));
         (1, return "*p");
         (1, map3 (Printf.sprintf "(%s ? %s : %s)") (int_expr 0) (int_expr (depth - 1)) (int_expr 0));
       ])
      st

(* an index expression guaranteed in [0, heap_len) *)
let index_expr depth = map (Printf.sprintf "((%s) & 15)") (int_expr depth)

let rec stmt depth st =
  (frequency
     [
       ( 4,
         let* v = oneofl int_vars in
         let* e = int_expr 2 in
         return (Printf.sprintf "%s = %s;" v e) );
       ( 2,
         let* i = index_expr 1 in
         let* e = int_expr 2 in
         return (Printf.sprintf "h[%s] = %s;" i e) );
       ( 2,
         let* i = index_expr 1 in
         return (Printf.sprintf "p = h + %s;" i) );
       (1, return "q = p;");
       ( 1,
         let* e = int_expr 1 in
         return (Printf.sprintf "*p = %s;" e) );
       ( 1,
         let* v = oneofl int_vars in
         return (Printf.sprintf "%s = *p + *q;" v) );
       (1, return "g0 = g0 + 1;");
       ( 1,
         let* v = oneofl int_vars in
         let* e = int_expr 1 in
         return (Printf.sprintf "%s += %s;" v e) );
       ( 1,
         let* v = oneofl int_vars in
         return (Printf.sprintf "%s++;" v) );
       (* in-bounds pointer stepping: p walks to a fresh position *)
       ( 1,
         let* i = index_expr 1 in
         return
           (Printf.sprintf "p = h; p += %s; g1 = g1 ^ *p;" i) );
       ( 1,
         if depth = 0 then return "g0++;"
         else
           let* c = int_expr 1 in
           let* a = block (depth - 1) 2 in
           let* b = block (depth - 1) 2 in
           return (Printf.sprintf "if (%s) {\n%s} else {\n%s}" c a b) );
       ( 1,
         if depth = 0 then return "g1++;"
         else
           (* one counter per nesting level: with a shared counter an
              inner loop resets the outer one and the program never
              terminates *)
           let tv = if depth >= 2 then "t" else "u" in
           let* n = int_range 2 6 in
           let* body = block (depth - 1) 2 in
           return
             (Printf.sprintf "for (%s = 0; %s < %d; %s++) {\n%s}" tv tv n tv
                body) );
       ( 1,
         let* e = int_expr 1 in
         return (Printf.sprintf "print_int(%s); putchar(10);" e) );
     ])
    st

and block depth n st =
  (let* stmts = list_repeat n (stmt depth) in
   return (String.concat "\n" stmts ^ "\n"))
    st

let program_gen : string QCheck.Gen.t =
  let* n = int_range 4 12 in
  let* body = block 2 n in
  return
    (Printf.sprintf
       {|long g0; long g1;
int main(void) {
  long a = 1; long b = 2; long c = 3; long d = 4; long t = 0; long u = 0;
  long *h = (long *)malloc(%d * sizeof(long));
  long *p; long *q;
  int i;
  for (i = 0; i < %d; i++) h[i] = i * 7;
  p = h; q = h + 5;
%s
  /* digest */
  print_int(a); print_int(b); print_int(c); print_int(d);
  print_int(g0); print_int(g1);
  for (i = 0; i < %d; i++) print_int(h[i]);
  print_int(p - h); print_int(q - h);
  putchar(10);
  return 0;
}|}
       heap_len heap_len body heap_len)

let arbitrary_program =
  QCheck.make ~print:(fun s -> s) program_gen

(* --- IR functions --------------------------------------------------- *)

open Ir.Instr

(* Random functions of one to four blocks over [regs] registers (seven by
   default): copies of registers and constants, arithmetic, memory (often
   [ld d, \[p + 0\]], which the peephole folds into), KeepLive, Opaque
   and calls, with branches forward and back, so copies are overwritten
   and dead chains cross blocks. *)
let ir_func ?(regs = 7) () =
  let reg = int_range 1 regs in
  let operand =
    frequency [ (4, map (fun r -> Reg r) reg); (1, map (fun k -> Imm k) (int_range 0 3)) ]
  in
  let instr =
    frequency
      [
        (5, map2 (fun d s -> Mov (d, s)) reg operand);
        (4, map3 (fun d a b -> Bin (Add, d, a, b)) reg operand operand);
        (1, map3 (fun d a b -> Rel (Lt, d, a, b)) reg operand operand);
        (1, map3 (fun d p t -> Load (W8, d, Reg p, t)) reg reg operand);
        (2, map2 (fun d p -> Load (W8, d, Reg p, Imm 0)) reg reg);
        (1, map3 (fun s p t -> Store (W8, s, Reg p, t)) operand reg operand);
        (1, map2 (fun d s -> Opaque (d, s)) reg operand);
        (1, map (fun r -> KeepLive (Reg r)) reg);
        (1, map (fun d -> Call (Some d, "f", 0)) reg);
      ]
  in
  let* nb = int_range 1 4 in
  let* blocks =
    flatten_l
      (List.init nb (fun l ->
           let* instrs = list_size (int_range 0 12) instr in
           let* term =
             if l = nb - 1 then map (fun r -> Ret (Some (Reg r))) reg
             else
               oneof
                 [
                   return (Jmp (l + 1));
                   map2 (fun c l' -> Br (Reg c, l + 1, l')) reg (int_range 0 (nb - 1));
                 ]
           in
           return { b_label = l; b_instrs = instrs; b_term = term }))
  in
  return
    {
      fn_name = "t"; fn_params = []; fn_ret_void = false;
      fn_blocks = blocks; fn_nreg = regs + 1; fn_frame = 0;
    }
