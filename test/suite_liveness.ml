(* Liveness dataflow unit tests on hand-built CFGs. *)

open Ir.Instr

let mk_blocks blocks =
  {
    fn_name = "t";
    fn_params = [];
    fn_ret_void = false;
    fn_blocks =
      List.map
        (fun (label, instrs, term) ->
          { b_label = label; b_instrs = instrs; b_term = term })
        blocks;
    fn_nreg = 16;
    fn_frame = 0;
  }

(* the registers live at the cursor's point *)
let elements (f : func) c =
  List.filter (Ir.Liveness.mem c) (List.init f.fn_nreg Fun.id)

let check_set name expected actual =
  Alcotest.(check (list int)) name (List.sort compare expected) actual

let test_straight_line () =
  let f =
    mk_blocks
      [ (0, [ Mov (1, Imm 5); Bin (Add, 2, Reg 1, Imm 1) ], Ret (Some (Reg 2))) ]
  in
  let live = Ir.Liveness.compute f in
  check_set "nothing live in" [] (Ir.Liveness.live_in live 0);
  check_set "nothing live out" [] (Ir.Liveness.live_out live 0);
  let b = List.hd f.fn_blocks in
  let c = Ir.Liveness.cursor live b in
  check_set "r2 live after add" [ 2 ] (elements f c);
  Ir.Liveness.step c (List.nth b.b_instrs 1);
  check_set "r1 live after mov" [ 1 ] (elements f c)

let test_param_liveness () =
  (* a value used before any definition is live-in at the entry *)
  let f = mk_blocks [ (0, [ Bin (Add, 2, Reg 1, Imm 1) ], Ret (Some (Reg 2))) ] in
  let live = Ir.Liveness.compute f in
  check_set "r1 live-in" [ 1 ] (Ir.Liveness.live_in live 0)

let test_branch_join () =
  (* r1 used on one arm only: live-in at the branch point nonetheless *)
  let f =
    mk_blocks
      [
        (0, [], Br (Reg 3, 1, 2));
        (1, [ Mov (4, Reg 1) ], Jmp 3);
        (2, [ Mov (4, Imm 0) ], Jmp 3);
        (3, [], Ret (Some (Reg 4)));
      ]
  in
  let live = Ir.Liveness.compute f in
  check_set "branch block live-in" [ 1; 3 ] (Ir.Liveness.live_in live 0);
  check_set "join live-in" [ 4 ] (Ir.Liveness.live_in live 3)

let test_loop_carried () =
  (* the loop counter is live around the back edge *)
  let f =
    mk_blocks
      [
        (0, [ Mov (1, Imm 0) ], Jmp 1);
        (1, [ Rel (Lt, 2, Reg 1, Imm 10) ], Br (Reg 2, 2, 3));
        (2, [ Bin (Add, 1, Reg 1, Imm 1) ], Jmp 1);
        (3, [], Ret (Some (Reg 1)));
      ]
  in
  let live = Ir.Liveness.compute f in
  check_set "counter live into head" [ 1 ] (Ir.Liveness.live_in live 1);
  check_set "counter live out of body" [ 1 ] (Ir.Liveness.live_out live 2);
  check_set "counter live out of head" [ 1 ] (Ir.Liveness.live_out live 1)

let test_keep_live_is_a_use () =
  (* the KeepLive marker extends the live range — the heart of the
     KEEP_LIVE contract at the IR level *)
  let without =
    mk_blocks
      [ (0, [ Mov (1, Reg 5); Bin (Add, 2, Reg 1, Imm 4); Mov (3, Imm 0) ],
         Ret (Some (Reg 2))) ]
  in
  let with_keep =
    mk_blocks
      [ (0, [ Mov (1, Reg 5); Bin (Add, 2, Reg 1, Imm 4); KeepLive (Reg 1);
              Mov (3, Imm 0) ],
         Ret (Some (Reg 2))) ]
  in
  let l1 = Ir.Liveness.compute without in
  let l2 = Ir.Liveness.compute with_keep in
  let r1_after live f =
    let b = List.hd f.fn_blocks in
    Ir.Liveness.live_after live b (Array.of_list b.b_instrs) (fun _ -> [ 1 ])
  in
  Alcotest.(check bool) "r1 dead after add without keep" false
    (r1_after l1 without).(1);
  Alcotest.(check bool) "r1 live after add with keep" true
    (r1_after l2 with_keep).(1)

let test_push_call_uses () =
  let f =
    mk_blocks
      [ (0, [ Push (Reg 7); Call (Some 2, "f", 1) ], Ret (Some (Reg 2))) ]
  in
  let live = Ir.Liveness.compute f in
  check_set "push argument live-in" [ 7 ] (Ir.Liveness.live_in live 0)

let test_store_uses_all () =
  let f =
    mk_blocks
      [ (0, [ Store (W8, Reg 1, Reg 2, Reg 3) ], Ret None) ]
  in
  let live = Ir.Liveness.compute f in
  check_set "store uses src, base, offset" [ 1; 2; 3 ]
    (Ir.Liveness.live_in live 0)

(* --- oracle: dense liveness against a textbook set fixpoint ------------- *)

module S = Set.Make (Int)

(* the registers live before [i], given those live after it *)
let step_back i after =
  let after = match def i with Some d -> S.remove d after | None -> after in
  S.union after (S.of_list (uses i))

(* live-in and live-out by round-robin iteration over [Set.Make(Int)]
   values, straight from [Instr.uses]/[Instr.def] *)
let reference (f : func) =
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let get tbl l = Option.value ~default:S.empty (Hashtbl.find_opt tbl l) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let out =
          List.fold_left
            (fun acc l -> S.union acc (get live_in l))
            S.empty (successors b.b_term)
        in
        let inn =
          List.fold_right step_back b.b_instrs
            (S.union out (S.of_list (term_uses b.b_term)))
        in
        if not (S.equal out (get live_out b.b_label) && S.equal inn (get live_in b.b_label))
        then begin
          changed := true;
          Hashtbl.replace live_out b.b_label out;
          Hashtbl.replace live_in b.b_label inn
        end)
      f.fn_blocks
  done;
  (get live_in, get live_out)

(* every block's live-in and live-out, and the cursor at every point *)
let agrees_with_reference (f : func) =
  let ref_in, ref_out = reference f in
  let live = Ir.Liveness.compute f in
  List.for_all
    (fun b ->
      let l = b.b_label in
      S.elements (ref_in l) = Ir.Liveness.live_in live l
      && S.elements (ref_out l) = Ir.Liveness.live_out live l
      &&
      let c = Ir.Liveness.cursor live b in
      let point = ref (S.union (ref_out l) (S.of_list (term_uses b.b_term))) in
      List.for_all
        (fun i ->
          let same = S.elements !point = elements f c in
          point := step_back i !point;
          Ir.Liveness.step c i;
          same)
        (List.rev b.b_instrs)
      && S.elements !point = elements f c)
    f.fn_blocks

(* Random programs, annotated as the safe build annotates them (so
   KeepLive and Opaque appear), lowered, and then also optimized and
   register-allocated: the peephole postprocessor's input. *)
let prop_matches_reference =
  QCheck.Test.make ~count:60 ~name:"dense liveness == Set.Make(Int) fixpoint"
    Testgen.arbitrary_program (fun src ->
      let ast = Csyntax.Parser.parse_program src in
      let annotated =
        (Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast)
          .Gcsafe.Annotate.program
      in
      let lower () = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode annotated in
      let lowered = lower () and optimized = lower () in
      ignore (Opt.Pipeline.run_program Opt.Pipeline.default optimized);
      List.for_all agrees_with_reference
        (lowered.p_funcs @ optimized.p_funcs))

let suite =
  [
    Alcotest.test_case "straight line" `Quick test_straight_line;
    Alcotest.test_case "parameters live-in" `Quick test_param_liveness;
    Alcotest.test_case "branch and join" `Quick test_branch_join;
    Alcotest.test_case "loop-carried values" `Quick test_loop_carried;
    Alcotest.test_case "KeepLive is a use" `Quick test_keep_live_is_a_use;
    Alcotest.test_case "push/call uses" `Quick test_push_call_uses;
    Alcotest.test_case "store uses all operands" `Quick test_store_uses_all;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
