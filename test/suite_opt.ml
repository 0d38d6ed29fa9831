(* Optimizer pass tests: each pass in isolation on hand-built IR, plus the
   pointer-disguising pass's interaction with KEEP_LIVE barriers. *)

open Ir.Instr

(* build a one-block function *)
let mk_func ?(params = []) ?(nreg = 32) instrs term =
  {
    fn_name = "t";
    fn_params = params;
    fn_ret_void = false;
    fn_blocks = [ { b_label = 0; b_instrs = instrs; b_term = term } ];
    fn_nreg = nreg;
    fn_frame = 0;
  }

let instrs_of f = (List.hd f.fn_blocks).b_instrs

let count_kind pred f =
  List.length (List.filter pred (instrs_of f))

(* --- copy propagation -------------------------------------------------- *)

let test_copyprop_basic () =
  let f =
    mk_func
      [ Mov (1, Imm 5); Mov (2, Reg 1); Bin (Add, 3, Reg 2, Reg 1) ]
      (Ret (Some (Reg 3)))
  in
  Opt.Copyprop.run f;
  match instrs_of f with
  | [ Mov (1, Imm 5); Mov (2, Imm 5); Bin (Add, 3, Imm 5, Imm 5) ] -> ()
  | is ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_copyprop_invalidation () =
  (* redefinition of the source kills the mapping *)
  let f =
    mk_func
      [ Mov (2, Reg 1); Mov (1, Imm 9); Bin (Add, 3, Reg 2, Imm 0) ]
      (Ret (Some (Reg 3)))
  in
  Opt.Copyprop.run f;
  (match instrs_of f with
  | [ _; _; Bin (Add, 3, Reg 2, Imm 0) ] -> ()
  | _ -> Alcotest.fail "stale copy propagated after source redefinition")

let test_copyprop_opaque_blocked () =
  (* Opaque results are not propagated: the value must stay stored *)
  let f =
    mk_func
      [ Opaque (2, Reg 1); Bin (Add, 3, Reg 2, Imm 1) ]
      (Ret (Some (Reg 3)))
  in
  Opt.Copyprop.run f;
  match instrs_of f with
  | [ Opaque (2, Reg 1); Bin (Add, 3, Reg 2, Imm 1) ] -> ()
  | _ -> Alcotest.fail "opaque value was propagated"

(* --- constant folding --------------------------------------------------- *)

let test_constfold () =
  let f =
    mk_func
      [
        Bin (Add, 1, Imm 2, Imm 3);
        Bin (Mul, 2, Reg 1, Imm 1);
        Bin (Add, 3, Reg 2, Imm 0);
        Rel (Lt, 4, Imm 1, Imm 2);
        Bin (Div, 5, Imm 7, Imm 0);
      ]
      (Ret (Some (Reg 4)))
  in
  Opt.Constfold.run f;
  match instrs_of f with
  | [ Mov (1, Imm 5); Mov (2, Reg 1); Mov (3, Reg 2); Mov (4, Imm 1);
      Bin (Div, 5, Imm 7, Imm 0) (* division by zero is left alone *) ] ->
      ()
  | is ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_constfold_branches () =
  let f = mk_func [] (Br (Imm 1, 1, 2)) in
  Opt.Constfold.run f;
  (match (List.hd f.fn_blocks).b_term with
  | Jmp 1 -> ()
  | _ -> Alcotest.fail "true branch not folded");
  let g = mk_func [] (Br (Imm 0, 1, 2)) in
  Opt.Constfold.run g;
  match (List.hd g.fn_blocks).b_term with
  | Jmp 2 -> ()
  | _ -> Alcotest.fail "false branch not folded"

(* --- CSE ----------------------------------------------------------------- *)

let test_cse () =
  let f =
    mk_func
      [
        Bin (Add, 2, Reg 1, Imm 4);
        Bin (Add, 3, Reg 1, Imm 4);
        Bin (Mul, 4, Reg 2, Reg 3);
      ]
      (Ret (Some (Reg 4)))
  in
  Opt.Cse.run f;
  match instrs_of f with
  | [ Bin (Add, 2, Reg 1, Imm 4); Mov (3, Reg 2); Bin (Mul, 4, Reg 2, Reg 3) ]
    ->
      ()
  | is ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_cse_killed_by_redef () =
  let f =
    mk_func
      [
        Bin (Add, 2, Reg 1, Imm 4);
        Mov (1, Imm 0);
        Bin (Add, 3, Reg 1, Imm 4);
      ]
      (Ret (Some (Reg 3)))
  in
  Opt.Cse.run f;
  match instrs_of f with
  | [ _; _; Bin (Add, 3, Reg 1, Imm 4) ] -> ()
  | _ -> Alcotest.fail "CSE across operand redefinition"

let test_cse_killed_by_value_redef () =
  (* redefining the register holding the value, not an operand, also
     kills the entry: r2 no longer holds r1 + 4 *)
  let f =
    mk_func
      [
        Bin (Add, 2, Reg 1, Imm 4);
        Mov (2, Imm 0);
        Bin (Add, 3, Reg 1, Imm 4);
      ]
      (Ret (Some (Reg 3)))
  in
  Opt.Cse.run f;
  match instrs_of f with
  | [ _; _; Bin (Add, 3, Reg 1, Imm 4) ] -> ()
  | _ -> Alcotest.fail "CSE reused a redefined value register"

let test_cse_self_update () =
  (* [r1 = r1 + 8] reads the old r1, so it makes no entry for the new one:
     the second add reads the new r1 and must stay *)
  let instrs = [ Bin (Add, 1, Reg 1, Imm 8); Bin (Add, 2, Reg 1, Imm 8) ] in
  let f = mk_func instrs (Ret (Some (Reg 2))) in
  Opt.Cse.run f;
  if instrs_of f <> instrs then
    Alcotest.failf "unexpected: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" pp_instr) (instrs_of f)))

(* --- DCE ------------------------------------------------------------------ *)

let test_dce () =
  let f =
    mk_func
      [
        Bin (Add, 2, Reg 1, Imm 1);  (* dead *)
        Bin (Add, 3, Reg 1, Imm 2);  (* live via ret *)
        Opaque (4, Reg 1);           (* dead opaque: removable *)
        KeepLive (Reg 1);            (* side effect: stays *)
        Store (W8, Reg 3, Reg 1, Imm 0) (* side effect: stays *);
      ]
      (Ret (Some (Reg 3)))
  in
  Opt.Dce.run f;
  match instrs_of f with
  | [ Bin (Add, 3, Reg 1, Imm 2); KeepLive (Reg 1); Store _ ] -> ()
  | is ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_dce_across_blocks () =
  (* r2's only use is r3's definition in the successor, and r3 is dead:
     both go *)
  let f =
    {
      fn_name = "t";
      fn_params = [ 1 ];
      fn_ret_void = false;
      fn_blocks =
        [
          { b_label = 0; b_instrs = [ Bin (Add, 2, Reg 1, Imm 1) ]; b_term = Jmp 1 };
          {
            b_label = 1;
            b_instrs = [ Bin (Mul, 3, Reg 2, Imm 3); Bin (Add, 4, Reg 1, Imm 2) ];
            b_term = Ret (Some (Reg 4));
          };
        ];
      fn_nreg = 8;
      fn_frame = 0;
    }
  in
  Opt.Dce.run f;
  match List.map (fun b -> b.b_instrs) f.fn_blocks with
  | [ []; [ Bin (Add, 4, Reg 1, Imm 2) ] ] -> ()
  | _ -> Alcotest.fail "dead chain across blocks survived"

let test_prune_unreachable () =
  let f =
    {
      fn_name = "t";
      fn_params = [];
      fn_ret_void = false;
      fn_blocks =
        [
          { b_label = 0; b_instrs = []; b_term = Jmp 2 };
          { b_label = 1; b_instrs = []; b_term = Ret None };  (* dead *)
          { b_label = 2; b_instrs = []; b_term = Ret None };
        ];
      fn_nreg = 8;
      fn_frame = 0;
    }
  in
  Opt.Dce.prune_unreachable f;
  Alcotest.(check (list int)) "labels" [ 0; 2 ]
    (List.map (fun b -> b.b_label) f.fn_blocks)

(* --- collapse --------------------------------------------------------------- *)

let test_collapse () =
  let f =
    mk_func
      [ Bin (Add, 5, Reg 1, Imm 1); Mov (2, Reg 5) ]
      (Ret (Some (Reg 2)))
  in
  Opt.Collapse.run f;
  match instrs_of f with
  | [ Bin (Add, 2, Reg 1, Imm 1) ] -> ()
  | is ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_collapse_blocked_by_other_use () =
  let f =
    mk_func
      [ Bin (Add, 5, Reg 1, Imm 1); Mov (2, Reg 5); Bin (Add, 3, Reg 5, Imm 2) ]
      (Ret (Some (Reg 3)))
  in
  Opt.Collapse.run f;
  Alcotest.(check int) "nothing removed" 3 (List.length (instrs_of f))

(* --- ptr_strength: the disguising pass ------------------------------------- *)

let test_disguise_displacement () =
  (* t := i - 1000; ld d, [p + t]   with p, t dead after
     ==> p := p - 1000; ld d, [p + i] *)
  let f =
    mk_func
      [ Bin (Sub, 3, Reg 2, Imm 1000); Load (W1, 4, Reg 1, Reg 3) ]
      (Ret (Some (Reg 4)))
  in
  Opt.Ptr_strength.run f;
  match instrs_of f with
  | [ Bin (Sub, 1, Reg 1, Imm 1000); Load (W1, 4, Reg 1, Reg 2) ] -> ()
  | is ->
      Alcotest.failf "not disguised: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_disguise_blocked_by_keep () =
  (* same shape, but a KeepLive pins p: no rewrite *)
  let f =
    mk_func
      [
        Bin (Sub, 3, Reg 2, Imm 1000);
        KeepLive (Reg 1);
        Load (W1, 4, Reg 1, Reg 3);
      ]
      (Ret (Some (Reg 4)))
  in
  Opt.Ptr_strength.run f;
  (* the integer temporary may be renamed, but the kept base r1 must not be
     overwritten and must still be the load's base *)
  match instrs_of f with
  | [ Bin (Sub, d, Reg 2, Imm 1000); KeepLive (Reg 1); Load (W1, 4, Reg 1, Reg d') ]
    when d <> 1 && d' = d ->
      ()
  | _ -> Alcotest.fail "disguised despite KEEP_LIVE"

let test_disguise_blocked_by_liveness () =
  (* p used after the load: no rewrite *)
  let f =
    mk_func
      [
        Bin (Sub, 3, Reg 2, Imm 1000);
        Load (W1, 4, Reg 1, Reg 3);
        Bin (Add, 5, Reg 1, Reg 4);
      ]
      (Ret (Some (Reg 5)))
  in
  Opt.Ptr_strength.run f;
  match instrs_of f with
  | [ Bin (Sub, d, Reg 2, Imm 1000); Load (W1, 4, Reg 1, Reg d'); _ ]
    when d <> 1 && d' = d ->
      ()
  | _ -> Alcotest.fail "disguised despite later use of p"

let test_disguise_blocked_by_offset_use () =
  (* t read between its definition and the load: folding would stop
     defining t under that reader, so the fold must not happen *)
  let f =
    mk_func ~params:[ 1; 2 ]
      [
        Bin (Add, 3, Reg 2, Imm 8);
        Bin (Mul, 5, Reg 3, Imm 2);
        Load (W8, 4, Reg 1, Reg 3);
        Bin (Add, 6, Reg 5, Reg 4);
      ]
      (Ret (Some (Reg 6)))
  in
  Opt.Ptr_strength.run f;
  let defined = Array.make 32 false in
  List.iter (fun r -> defined.(r) <- true) f.fn_params;
  List.iter
    (fun i ->
      List.iter
        (fun r ->
          if not defined.(r) then
            Alcotest.failf "r%d read before it is defined: %s" r
              (String.concat "; "
                 (List.map (Format.asprintf "%a" pp_instr) (instrs_of f))))
        (uses i);
      Option.iter (fun d -> defined.(d) <- true) (def i))
    (instrs_of f)

let test_disguise_reuse_base () =
  (* q := p + 8 with p dead: q renamed to p *)
  let f =
    mk_func
      [ Bin (Add, 2, Reg 1, Imm 8); Load (W8, 3, Reg 2, Imm 0) ]
      (Ret (Some (Reg 3)))
  in
  Opt.Ptr_strength.run f;
  match instrs_of f with
  | [ Bin (Add, 1, Reg 1, Imm 8); Load (W8, 3, Reg 1, Imm 0) ] -> ()
  | is ->
      Alcotest.failf "base not reused: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_disguise_sees_earlier_folds () =
  (* folding r3 := r2 + 3 into the first load makes that instruction a
     definition of r1, so r3 is unchanged from r5 := r3 + 5 to the second
     load, and r5's displacement folds into r6 as well *)
  let f =
    mk_func
      [
        Bin (Add, 5, Reg 3, Imm 5);
        Bin (Add, 3, Reg 2, Imm 3);
        Load (W8, 4, Reg 1, Reg 3);
        Load (W8, 7, Reg 6, Reg 5);
        Bin (Add, 8, Reg 4, Reg 7);
      ]
      (Ret (Some (Reg 8)))
  in
  Opt.Ptr_strength.run f;
  match instrs_of f with
  | [
   Bin (Add, 6, Reg 6, Imm 5);
   Bin (Add, 1, Reg 1, Imm 3);
   Load (W8, 4, Reg 1, Reg 2);
   Load (W8, 7, Reg 6, Reg 3);
   _;
  ] ->
      ()
  | is ->
      Alcotest.failf "second fold missed: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

(* A straight-line block of n statements [x' := x + c; ld d, [x' + t]]
   with t set once at the top: every add renames its sum into the base,
   so the renames chain through the whole block, and every load's offset
   was defined up to n statements back.  Rescanning the block for each
   candidate is quadratic here. *)
let chain_block n =
  let t = 1 and d = 2 and x k = 3 + k in
  let body =
    List.concat
      (List.init n (fun k ->
           [
             Bin (Add, x (k + 1), Reg (x k), Imm ((k mod 7) + 1));
             Load (W8, d, Reg (x (k + 1)), Reg t);
           ]))
  in
  mk_func ~params:[ x 0 ] ~nreg:(n + 4) (Mov (t, Imm 8) :: body)
    (Ret (Some (Reg (x n))))

let test_disguise_scales_linearly () =
  let make n () =
    let f = chain_block n in
    fun () -> Opt.Ptr_strength.run f
  in
  let ratio, small, large = Util.growth make 1000 8000 in
  (* 8x the statements: linear is 8x, quadratic 64x *)
  if ratio > 32. then
    Alcotest.failf "8000 statements took %.1fx as long as 1000 (%.2f ms vs %.2f ms)"
      ratio (large *. 1e3) (small *. 1e3)

(* The two shapes as the pass first stated them: each candidate rescans
   the block, and a rename rewrites every later instruction at once.
   Quadratic; the linear pass must rewrite exactly as this does. *)
let reference_ptr_strength (f : func) =
  let after live b =
    let instrs = Array.of_list b.b_instrs in
    let a = Array.make (Array.length instrs) [] in
    let c = Ir.Liveness.cursor live b in
    for i = Array.length instrs - 1 downto 0 do
      a.(i) <- List.filter (Ir.Liveness.mem c) (List.init f.fn_nreg Fun.id);
      Ir.Liveness.step c instrs.(i)
    done;
    a
  in
  let between lo hi = List.init (max 0 (hi - lo - 1)) (fun k -> lo + 1 + k) in
  let live = Ir.Liveness.compute f in
  List.iter
    (fun b ->
      let after = after live b and instrs = Array.of_list b.b_instrs in
      for idx = 0 to Array.length instrs - 1 do
        match instrs.(idx) with
        | Load (w, d, Reg p, Reg t) when p <> t && d <> p -> (
            let rec find_def j =
              if j < 0 then None
              else
                match instrs.(j) with
                | Bin (((Add | Sub) as op), t', Reg i, Imm c) when t' = t ->
                    Some (j, op, i, c)
                | x when def x = Some t -> None
                | _ -> find_def (j - 1)
            in
            match find_def (idx - 1) with
            | Some (j, op, i, c)
              when i <> t && i <> p
                   && (not (List.mem p after.(idx) || List.mem t after.(idx)))
                   && List.for_all
                        (fun k ->
                          (not (List.mem p (uses instrs.(k))))
                          && (not (List.mem t (uses instrs.(k))))
                          && not (List.mem (def instrs.(k)) [ Some p; Some i; Some t ]))
                        (between j idx) ->
                instrs.(j) <- Bin (op, p, Reg p, Imm c);
                instrs.(idx) <- Load (w, d, Reg p, Reg i)
            | _ -> ())
        | _ -> ()
      done;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks;
  let live = Ir.Liveness.compute f in
  List.iter
    (fun b ->
      let after = after live b and instrs = Array.of_list b.b_instrs in
      let n = Array.length instrs and term = term_uses b.b_term in
      for idx = 0 to n - 1 do
        match instrs.(idx) with
        | Bin (((Add | Sub) as op), q, Reg p, (Imm _ as c))
          when q <> p
               && (not (List.mem p after.(idx)))
               && (not (Ir.Liveness.mem_out live b.b_label q))
               && (not (List.mem q term || List.mem p term))
               && List.for_all
                    (fun k ->
                      let x = instrs.(k) in
                      x <> KeepLive (Reg q)
                      && x <> KeepLive (Reg p)
                      && (not (List.mem (def x) [ Some q; Some p ]))
                      && not (List.mem p (uses x)))
                    (between idx n) ->
            instrs.(idx) <- Bin (op, p, Reg p, c);
            for k = idx + 1 to n - 1 do
              instrs.(k) <-
                map_instr_ops (fun r -> Reg (if r = q then p else r)) instrs.(k)
            done
        | _ -> ()
      done;
      b.b_instrs <- Array.to_list instrs)
    f.fn_blocks

(* Random functions of one to three blocks over six registers, mostly
   [q := p +- c]: renames chain, and pile up on the same few names. *)
let gen_disguise_func =
  let open QCheck.Gen in
  let reg = int_range 1 6 in
  let instr =
    frequency
      [
        (6, map3 (fun op (q, p) c -> Bin (op, q, Reg p, Imm c))
              (oneofl [ Add; Sub ]) (pair reg reg) (int_range 1 9));
        (3, map3 (fun d p t -> Load (W8, d, Reg p, Reg t)) reg reg reg);
        (1, map2 (fun d p -> Load (W8, d, Reg p, Imm 0)) reg reg);
        (1, map2 (fun d s -> Mov (d, Reg s)) reg reg);
        (1, map (fun r -> KeepLive (Reg r)) reg);
        (1, map2 (fun s p -> Store (W8, Reg s, Reg p, Imm 0)) reg reg);
      ]
  in
  let* nb = int_range 1 3 in
  let* blocks =
    flatten_l
      (List.init nb (fun l ->
           let* instrs = list_size (int_range 0 25) instr in
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
      fn_blocks = blocks; fn_nreg = 7; fn_frame = 0;
    }

let show_func f = Format.asprintf "%a" pp_func f

let prop_disguise_matches_reference =
  QCheck.Test.make ~count:500 ~name:"disguise: linear pass == rescanning reference"
    (QCheck.make ~print:show_func gen_disguise_func) (fun f ->
      let copy () =
        { f with fn_blocks = List.map (fun b -> { b with b_instrs = b.b_instrs }) f.fn_blocks }
      in
      let fast = copy () and slow = copy () in
      Opt.Ptr_strength.run fast;
      reference_ptr_strength slow;
      show_func fast = show_func slow)

(* --- copy propagation and DCE against their first statements ------------ *)

(* Copy propagation as it was first stated: a hashtable environment, and
   each definition scans every mapping for ones whose source it
   overwrites.  Quadratic; the dense pass must rewrite exactly as this
   does. *)
let reference_copyprop (f : func) =
  List.iter
    (fun b ->
      let env : (reg, operand) Hashtbl.t = Hashtbl.create 16 in
      let invalidate r =
        Hashtbl.remove env r;
        let victims =
          Hashtbl.fold (fun d s acc -> if s = Reg r then d :: acc else acc) env []
        in
        List.iter (Hashtbl.remove env) victims
      in
      let subst r = match Hashtbl.find_opt env r with Some o -> o | None -> Reg r in
      b.b_instrs <-
        List.map
          (fun i ->
            let i = map_instr_ops subst i in
            (match def i with Some d -> invalidate d | None -> ());
            (match i with Mov (d, s) when s <> Reg d -> Hashtbl.replace env d s | _ -> ());
            i)
          b.b_instrs;
      b.b_term <- map_term_ops subst b.b_term)
    f.fn_blocks

(* DCE as it was first stated: recompute liveness and sweep every block
   until a round removes nothing. *)
let reference_dce (f : func) =
  let changed = ref true in
  while !changed do
    let live = Ir.Liveness.compute f in
    changed := false;
    List.iter
      (fun b ->
        let c = Ir.Liveness.cursor live b in
        let keep =
          List.fold_left
            (fun keep i ->
              match def i with
              | Some d when (not (Ir.Liveness.mem c d)) && not (has_side_effect i) ->
                  changed := true;
                  keep
              | _ ->
                  Ir.Liveness.step c i;
                  i :: keep)
            [] (List.rev b.b_instrs)
        in
        b.b_instrs <- keep)
      f.fn_blocks
  done

(* A function of a random program, lowered as the safe build lowers it
   (so KeepLive and Opaque appear), or a random function. *)
let gen_ir_func =
  let open QCheck.Gen in
  let lowered src =
    let ast = Csyntax.Parser.parse_program src in
    let annotated =
      (Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast)
        .Gcsafe.Annotate.program
    in
    (Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode annotated).p_funcs
  in
  frequency [ (1, Testgen.program_gen >>= fun src -> oneofl (lowered src)); (3, Testgen.ir_func ()) ]

(* [pass] and [reference] rewrite copies of [f] alike *)
let agree pass reference f =
  let copy () =
    { f with fn_blocks = List.map (fun b -> { b with b_instrs = b.b_instrs }) f.fn_blocks }
  in
  let fast = copy () and slow = copy () in
  pass fast;
  reference slow;
  show_func fast = show_func slow

let prop_copyprop_matches_reference =
  QCheck.Test.make ~count:400 ~name:"copyprop: dense pass == hashtable reference"
    (QCheck.make ~print:show_func gen_ir_func)
    (agree Opt.Copyprop.run reference_copyprop)

let prop_dce_matches_reference =
  QCheck.Test.make ~count:400 ~name:"dce: == recompute-until-stable reference"
    (QCheck.make ~print:show_func gen_ir_func)
    (agree Opt.Dce.run reference_dce)

(* A straight-line block of n statements [d := s; e := d + 1] whose
   sources are never redefined: every copy stays mapped to the end of the
   block, so a pass that scans all mappings at each definition is
   quadratic here. *)
let copy_block n =
  let body =
    List.concat
      (List.init n (fun k ->
           let d = 9 + (2 * k) in
           [ Mov (d, Reg (1 + (k mod 8))); Bin (Add, d + 1, Reg d, Imm 1) ]))
  in
  mk_func ~params:(List.init 8 succ) ~nreg:(9 + (2 * n)) body
    (Ret (Some (Reg (8 + (2 * n)))))

let test_copyprop_scales_linearly () =
  let make n () =
    let f = copy_block n in
    fun () -> Opt.Copyprop.run f
  in
  let ratio, small, large = Util.growth make 1000 8000 in
  (* 8x the statements: linear is 8x, quadratic 64x *)
  if ratio > 32. then
    Alcotest.failf "8000 statements took %.1fx as long as 1000 (%.2f ms vs %.2f ms)"
      ratio (large *. 1e3) (small *. 1e3)

(* --- semantic preservation through the whole pipeline ----------------------- *)

let test_optimizer_preserves_semantics () =
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let unopt = Util.run ~optimize:false src in
      let opt = Util.run ~optimize:true src in
      Alcotest.(check string) (w.Workloads.Registry.w_name ^ " -O == -O0")
        unopt opt)
    [ Workloads.Registry.cordtest; Workloads.Registry.gawk; Workloads.Registry.gs ]

let test_optimizer_shrinks_code () =
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      let size optimize =
        Ir.Instr.program_size (Util.compile ~optimize src)
      in
      Alcotest.(check bool)
        (w.Workloads.Registry.w_name ^ " optimized smaller")
        true
        (size true < size false))
    Workloads.Registry.paper_suite

let suite =
  [
    Alcotest.test_case "copyprop basic" `Quick test_copyprop_basic;
    Alcotest.test_case "copyprop invalidation" `Quick
      test_copyprop_invalidation;
    Alcotest.test_case "copyprop blocked by Opaque" `Quick
      test_copyprop_opaque_blocked;
    Alcotest.test_case "constant folding" `Quick test_constfold;
    Alcotest.test_case "branch folding" `Quick test_constfold_branches;
    Alcotest.test_case "cse" `Quick test_cse;
    Alcotest.test_case "cse invalidation" `Quick test_cse_killed_by_redef;
    Alcotest.test_case "cse value invalidation" `Quick
      test_cse_killed_by_value_redef;
    Alcotest.test_case "cse self-update" `Quick test_cse_self_update;
    Alcotest.test_case "dce" `Quick test_dce;
    Alcotest.test_case "dce across blocks" `Quick test_dce_across_blocks;
    Alcotest.test_case "unreachable blocks" `Quick test_prune_unreachable;
    Alcotest.test_case "collapse" `Quick test_collapse;
    Alcotest.test_case "collapse blocked" `Quick
      test_collapse_blocked_by_other_use;
    Alcotest.test_case "disguise: displacement fold" `Quick
      test_disguise_displacement;
    Alcotest.test_case "disguise: blocked by KEEP_LIVE" `Quick
      test_disguise_blocked_by_keep;
    Alcotest.test_case "disguise: blocked by liveness" `Quick
      test_disguise_blocked_by_liveness;
    Alcotest.test_case "disguise: sees earlier folds" `Quick
      test_disguise_sees_earlier_folds;
    Alcotest.test_case "disguise: linear in block length" `Quick
      test_disguise_scales_linearly;
    QCheck_alcotest.to_alcotest prop_disguise_matches_reference;
    QCheck_alcotest.to_alcotest prop_copyprop_matches_reference;
    QCheck_alcotest.to_alcotest prop_dce_matches_reference;
    Alcotest.test_case "copyprop: linear in block length" `Quick
      test_copyprop_scales_linearly;
    Alcotest.test_case "disguise: base register reuse" `Quick
      test_disguise_reuse_base;
    Alcotest.test_case "semantics preserved" `Quick
      test_optimizer_preserves_semantics;
    Alcotest.test_case "optimizer shrinks code" `Quick
      test_optimizer_shrinks_code;
    Alcotest.test_case "disguise: blocked by a use of the offset" `Quick
      test_disguise_blocked_by_offset_use;
  ]
