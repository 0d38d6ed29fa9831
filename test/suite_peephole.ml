(* Peephole postprocessor tests: the three paper patterns, their safety
   constraints, and end-to-end effect on annotated code. *)

open Ir.Instr

let mk_func instrs term =
  {
    fn_name = "t";
    fn_params = [];
    fn_ret_void = false;
    fn_blocks = [ { b_label = 0; b_instrs = instrs; b_term = term } ];
    fn_nreg = 32;
    fn_frame = 0;
  }

let run_one f =
  let stats = Peephole.Postprocess.fresh_stats () in
  Peephole.Postprocess.run_func stats f;
  (stats, (List.hd f.fn_blocks).b_instrs)

(* pattern 1: add x,y,z ; ld [z] ==> ld [x+y] *)
let test_fuse_load () =
  let f =
    mk_func
      [
        Bin (Add, 3, Reg 1, Reg 2);
        KeepLive (Reg 1);
        Load (W8, 4, Reg 3, Imm 0);
      ]
      (Ret (Some (Reg 4)))
  in
  let stats, is = run_one f in
  Alcotest.(check int) "fused" 1 stats.Peephole.Postprocess.ph_fused_loads;
  match is with
  | [ KeepLive (Reg 1); Load (W8, 4, Reg 1, Reg 2) ] -> ()
  | _ ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_fuse_load_blocked_by_other_use () =
  (* z used again later: must not fuse *)
  let f =
    mk_func
      [
        Bin (Add, 3, Reg 1, Reg 2);
        Load (W8, 4, Reg 3, Imm 0);
        Bin (Add, 5, Reg 3, Imm 1);
      ]
      (Ret (Some (Reg 5)))
  in
  let stats, _ = run_one f in
  Alcotest.(check int) "not fused" 0 stats.Peephole.Postprocess.ph_fused_loads

let test_fuse_load_blocked_by_source_redef () =
  (* x changes between the add and the load *)
  let f =
    mk_func
      [
        Bin (Add, 3, Reg 1, Reg 2);
        Bin (Add, 1, Reg 1, Imm 8);
        Load (W8, 4, Reg 3, Imm 0);
      ]
      (Ret (Some (Reg 4)))
  in
  let stats, _ = run_one f in
  Alcotest.(check int) "not fused" 0 stats.Peephole.Postprocess.ph_fused_loads

let test_fuse_load_blocked_by_keep_live_base () =
  (* z is itself a KEEP_LIVE base: the paper forbids rewriting it *)
  let f =
    mk_func
      [
        Bin (Add, 3, Reg 1, Reg 2);
        KeepLive (Reg 3);
        Load (W8, 4, Reg 3, Imm 0);
      ]
      (Ret (Some (Reg 4)))
  in
  let stats, _ = run_one f in
  Alcotest.(check int) "not fused" 0 stats.Peephole.Postprocess.ph_fused_loads

(* pattern 2: mov forwarding *)
let test_forward_mov () =
  let f =
    mk_func
      [ Mov (3, Reg 1); Bin (Add, 4, Reg 3, Imm 1) ]
      (Ret (Some (Reg 4)))
  in
  let stats, is = run_one f in
  Alcotest.(check int) "forwarded" 1
    stats.Peephole.Postprocess.ph_forwarded_moves;
  match is with
  | [ Bin (Add, 4, Reg 1, Imm 1) ] -> ()
  | _ ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_forward_mov_blocked_by_redef () =
  (* x redefined between the mov and a use of z: the mov must stay for the
     later use *)
  let f =
    mk_func
      [
        Mov (3, Reg 1);
        Bin (Add, 1, Reg 1, Imm 8);
        Bin (Add, 4, Reg 3, Imm 1);
      ]
      (Ret (Some (Reg 4)))
  in
  let stats, is = run_one f in
  Alcotest.(check int) "not removed" 0
    stats.Peephole.Postprocess.ph_forwarded_moves;
  match is with
  | Mov (3, Reg 1) :: _ -> ()
  | _ -> Alcotest.fail "mov must survive"

let test_forward_mov_blocked_by_keep_live () =
  let f =
    mk_func
      [ Mov (3, Reg 1); KeepLive (Reg 3); Bin (Add, 4, Reg 3, Imm 1) ]
      (Ret (Some (Reg 4)))
  in
  let stats, _ = run_one f in
  Alcotest.(check int) "keep-live operand not forwarded" 0
    stats.Peephole.Postprocess.ph_forwarded_moves

(* pattern 3: add sinking *)
let test_sink_add () =
  let f =
    mk_func
      [ Bin (Add, 3, Reg 1, Reg 2); Mov (4, Reg 3) ]
      (Ret (Some (Reg 4)))
  in
  let stats, is = run_one f in
  Alcotest.(check int) "sunk" 1 stats.Peephole.Postprocess.ph_sunk_adds;
  match is with
  | [ Bin (Add, 4, Reg 1, Reg 2) ] -> ()
  | _ ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" pp_instr) is))

let test_sink_add_blocked () =
  (* z still live after the mov *)
  let f =
    mk_func
      [ Bin (Add, 3, Reg 1, Reg 2); Mov (4, Reg 3); Bin (Mul, 5, Reg 3, Reg 4) ]
      (Ret (Some (Reg 5)))
  in
  let stats, _ = run_one f in
  Alcotest.(check int) "not sunk" 0 stats.Peephole.Postprocess.ph_sunk_adds

(* --- against the rescanning statement ------------------------------------ *)

(* The three patterns as they were first stated: patterns 1 and 3 scan
   back from each candidate for the add they fold, which is quadratic in
   a block that loads through a register it never defines, and liveness
   is recomputed before every pattern.  The postprocessor must rewrite
   exactly as this does. *)
module P = Peephole.Postprocess

let redefines instr rs =
  match def instr with Some d -> List.mem d rs | None -> false

let reg_list ops =
  List.filter_map (function Reg r -> Some r | Imm _ | Glob _ -> None) ops

(* Pattern 1: add x,y,z ; ... ; ld d,[z+0]  ==>  ld d,[x+y].
   z dead after the load, z unused in between and after, x,y stable. *)
let reference_fuse_loads (stats : P.stats) klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Load (_, _, Reg z, Imm 0) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Load (w, d, Reg z, Imm 0) when not (Hashtbl.mem klregs z) ->
        (* find the defining add *)
        let rec find_def j =
          if j < 0 then None
          else if removed.(j) then find_def (j - 1)
          else
            match instrs.(j) with
            | Bin (Add, z', x, y) when z' = z -> Some (j, x, y)
            | i when def i = Some z -> None
            | _ -> find_def (j - 1)
        in
        (match find_def (idx - 1) with
        | Some (j, x, y) ->
            let srcs = reg_list [ x; y ] in
            let ok = ref (not z_live.(idx)) in
            (* z unused and x,y unchanged strictly between j and idx *)
            for k = j + 1 to idx - 1 do
              if not removed.(k) then begin
                if List.mem z (uses instrs.(k)) then ok := false;
                if redefines instrs.(k) (z :: srcs) then ok := false
              end
            done;
            if !ok then begin
              removed.(j) <- true;
              instrs.(idx) <- Load (w, d, x, y);
              stats.P.ph_fused_loads <- stats.P.ph_fused_loads + 1
            end
        | None -> ())
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

(* Pattern 2: mov z,x forwarding — rewrite in-block uses of z to x while x
   and z are unchanged; drop the mov when z ends up dead. *)
let reference_forward_moves (stats : P.stats) klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Mov (z, Reg x) when z <> x && not (Hashtbl.mem klregs z) ->
        (* rewrite following uses of z to x until z or x is redefined *)
        let stop = ref false in
        let k = ref (idx + 1) in
        while (not !stop) && !k < n do
          if not removed.(!k) then begin
            let i = instrs.(!k) in
            if List.mem z (uses i) then
              instrs.(!k) <-
                map_instr_ops (fun r -> if r = z then Reg x else Reg r) i;
            if redefines i [ z; x ] then stop := true
          end;
          incr k
        done;
        (* the mov is removable if z is now locally dead: no remaining use
           of z after idx in the block before any redef, and z redefined
           in the block or dead at its end (live-out ∪ terminator uses) *)
        let z_still_used = ref false in
        let k2 = ref (idx + 1) in
        let stopped = ref false in
        while (not !stopped) && !k2 < n do
          if not removed.(!k2) then begin
            if List.mem z (uses instrs.(!k2)) then z_still_used := true;
            if redefines instrs.(!k2) [ z ] then stopped := true
          end;
          incr k2
        done;
        if
          (not !z_still_used)
          && (!stopped
             || (not (Ir.Liveness.mem_out live b.b_label z))
                && not (List.mem z (term_uses b.b_term)))
        then begin
          removed.(idx) <- true;
          stats.P.ph_forwarded_moves <- stats.P.ph_forwarded_moves + 1
        end
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

(* Pattern 3: add x,y,z ; ... ; mov w,z  ==>  ... ; add x,y,w *)
let reference_sink_adds (stats : P.stats) klregs live (b : block) =
  let instrs = Array.of_list b.b_instrs in
  let n = Array.length instrs in
  let z_live =
    Ir.Liveness.live_after live b instrs (function
      | Mov (_, Reg z) -> [ z ]
      | _ -> [])
  in
  let removed = Array.make n false in
  for idx = 0 to n - 1 do
    match instrs.(idx) with
    | Mov (w, Reg z) when w <> z && not (Hashtbl.mem klregs z) ->
        let rec find_def j =
          if j < 0 then None
          else if removed.(j) then find_def (j - 1)
          else
            match instrs.(j) with
            | Bin (op, z', x, y) when z' = z -> Some (j, op, x, y)
            | i when def i = Some z -> None
            | _ -> find_def (j - 1)
        in
        (match find_def (idx - 1) with
        | Some (j, op, x, y) ->
            let srcs = reg_list [ x; y ] in
            let ok = ref (not z_live.(idx)) in
            for k = j + 1 to idx - 1 do
              if not removed.(k) then begin
                if List.mem z (uses instrs.(k)) then ok := false;
                if redefines instrs.(k) (z :: w :: srcs) then ok := false
              end
            done;
            if !ok then begin
              removed.(j) <- true;
              instrs.(idx) <- Bin (op, w, x, y);
              stats.P.ph_sunk_adds <- stats.P.ph_sunk_adds + 1
            end
        | None -> ())
    | _ -> ()
  done;
  b.b_instrs <-
    List.filteri (fun i _ -> not removed.(i)) (Array.to_list instrs)

let reference_run_func stats (f : func) =
  let klregs = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (function KeepLive (Reg r) -> Hashtbl.replace klregs r () | _ -> ())
        b.b_instrs)
    f.fn_blocks;
  List.iter
    (fun transform ->
      let live = Ir.Liveness.compute f in
      List.iter (transform stats klregs live) f.fn_blocks)
    [ reference_forward_moves; reference_fuse_loads; reference_sink_adds ]

(* A function of a random program through the safe build's optimizer and
   register allocator, the postprocessor's input, or a random function
   over few registers, so adds and the loads and moves that could fold
   them meet often. *)
let gen_input =
  let open QCheck.Gen in
  let allocated src =
    let ast = Csyntax.Parser.parse_program src in
    let annotated =
      (Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast)
        .Gcsafe.Annotate.program
    in
    let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode annotated in
    ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
    irp.p_funcs
  in
  frequency [ (1, Testgen.program_gen >>= fun src -> oneofl (allocated src)); (7, Testgen.ir_func ~regs:4 ()) ]

let show_func f = Format.asprintf "%a" pp_func f

let prop_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"def table == rescanning reference"
    (QCheck.make ~print:show_func gen_input) (fun f ->
      let copy () =
        { f with fn_blocks = List.map (fun b -> { b with b_instrs = b.b_instrs }) f.fn_blocks }
      in
      let fast = copy () and slow = copy () in
      let fast_stats = P.fresh_stats () and slow_stats = P.fresh_stats () in
      P.run_func fast_stats fast;
      reference_run_func slow_stats slow;
      show_func fast = show_func slow && fast_stats = slow_stats)

(* n loads through r1, which the block never defines, feeding a running
   sum: scanning back from each load for r1's defining add is quadratic
   here *)
let load_block n =
  mk_func
    (List.concat (List.init n (fun _ -> [ Load (W8, 2, Reg 1, Imm 0); Bin (Add, 3, Reg 3, Reg 2) ])))
    (Ret (Some (Reg 3)))

let test_scales_linearly () =
  let make n () =
    let f = load_block n in
    fun () -> P.run_func (P.fresh_stats ()) f
  in
  let ratio, small, large = Util.growth make 1000 8000 in
  (* 8x the statements: linear is 8x, quadratic 64x *)
  if ratio > 32. then
    Alcotest.failf "8000 statements took %.1fx as long as 1000 (%.2f ms vs %.2f ms)"
      ratio (large *. 1e3) (small *. 1e3)

(* --- end to end -------------------------------------------------------- *)

let test_analysis_example_recovered () =
  (* the paper's f: safe code is add+keep+ld; the postprocessor gets back to
     the optimized ld [x+1] *)
  let src = "char f(char *x) { return x[1]; } int main(void) { return 0; }" in
  let ast = Csyntax.Parser.parse_program src in
  let r = Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast in
  let irp =
    Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode r.Gcsafe.Annotate.program
  in
  ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
  ignore (Peephole.Postprocess.run irp);
  let f = List.find (fun f -> f.fn_name = "f") irp.p_funcs in
  let loads =
    List.concat_map
      (fun b ->
        List.filter_map
          (function Load (w, _, base, off) -> Some (w, base, off) | _ -> None)
          b.b_instrs)
      f.fn_blocks
  in
  match loads with
  | [ (W1, Reg _, Imm 1) ] -> ()
  | _ -> Alcotest.fail "expected the fused ldb [x+1]"

let test_semantics_preserved () =
  List.iter
    (fun w ->
      let src = w.Workloads.Registry.w_source in
      match
        ( Util.run_built Harness.Build.Safe src,
          Util.run_built Harness.Build.Safe_peephole src )
      with
      | Harness.Measure.Ran a, Harness.Measure.Ran b ->
          Alcotest.(check string)
            (w.Workloads.Registry.w_name ^ " output")
            a.Harness.Measure.o_output b.Harness.Measure.o_output;
          Alcotest.(check bool)
            (w.Workloads.Registry.w_name ^ " faster or equal")
            true
            (b.Harness.Measure.o_cycles <= a.Harness.Measure.o_cycles);
          Alcotest.(check bool)
            (w.Workloads.Registry.w_name ^ " not larger")
            true
            (b.Harness.Measure.o_size <= a.Harness.Measure.o_size)
      | _ -> Alcotest.fail "runs failed")
    Workloads.Registry.paper_suite

let test_safe_under_async_gc_after_peephole () =
  (* the postprocessed code must still be GC-safe: collect constantly *)
  let src = Workloads.Registry.cordtest.Workloads.Registry.w_source in
  let ast = Csyntax.Parser.parse_program src in
  let r = Gcsafe.Annotate.run ~opts:(Gcsafe.Mode.default Gcsafe.Mode.Safe) ast in
  let irp =
    Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode r.Gcsafe.Annotate.program
  in
  ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
  ignore (Peephole.Postprocess.run irp);
  let config =
    {
      (Machine.Vm.default_config ()) with
      Machine.Vm.vm_gc_schedule = Machine.Schedule.Every 5000;
    }
  in
  let res = Machine.Vm.run ~config irp in
  Alcotest.(check bool) "collections ran" true (res.Machine.Vm.r_gc_count > 50);
  Alcotest.(check bool) "completed" true
    (String.length res.Machine.Vm.r_output > 0)

let suite =
  [
    Alcotest.test_case "pattern 1: fuse load" `Quick test_fuse_load;
    Alcotest.test_case "pattern 1: other use blocks" `Quick
      test_fuse_load_blocked_by_other_use;
    Alcotest.test_case "pattern 1: source redef blocks" `Quick
      test_fuse_load_blocked_by_source_redef;
    Alcotest.test_case "pattern 1: KEEP_LIVE base blocks" `Quick
      test_fuse_load_blocked_by_keep_live_base;
    Alcotest.test_case "pattern 2: forward mov" `Quick test_forward_mov;
    Alcotest.test_case "pattern 2: redef blocks" `Quick
      test_forward_mov_blocked_by_redef;
    Alcotest.test_case "pattern 2: KEEP_LIVE blocks" `Quick
      test_forward_mov_blocked_by_keep_live;
    Alcotest.test_case "pattern 3: sink add" `Quick test_sink_add;
    Alcotest.test_case "pattern 3: liveness blocks" `Quick
      test_sink_add_blocked;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "linear in block length" `Quick test_scales_linearly;
    Alcotest.test_case "analysis example recovered" `Quick
      test_analysis_example_recovered;
    Alcotest.test_case "semantics and size preserved" `Quick
      test_semantics_preserved;
    Alcotest.test_case "still GC-safe under async collection" `Quick
      test_safe_under_async_gc_after_peephole;
  ]
