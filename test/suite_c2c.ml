(* The C-to-C property: the preprocessor's output is real source code.

   The paper's tool is a source-to-source transformer whose output is fed
   to an unmodified compiler.  These tests print the annotated program,
   re-parse it, compile it with NO further annotation, and require the
   same behaviour — for both output modes, plus idempotence guards. *)

open Csyntax
open Gcsafe

let annotate mode src =
  let p = Parser.parse_program src in
  (Annotate.run ~opts:(Mode.default mode) p).Annotate.program

let compile_and_run program =
  ignore (Typecheck.check_program program);
  let irp = Ir.Compile.compile_program ~mode:Ir.Compile.opt_mode program in
  ignore (Opt.Pipeline.run_program Opt.Pipeline.default irp);
  (Machine.Vm.run irp).Machine.Vm.r_output

let baseline src =
  let p, _ = Typecheck.check_source src in
  compile_and_run p

let roundtrip_config mode name src =
  let annotated = annotate mode src in
  let printed = Pretty.program_to_string annotated in
  let reparsed = Parser.parse_program printed in
  Alcotest.(check string)
    (Printf.sprintf "%s [%s] printed output behaves identically" name
       (Mode.to_string mode))
    (baseline src) (compile_and_run reparsed)

let test_safe_output_is_source () =
  List.iter
    (fun w ->
      roundtrip_config Mode.Safe w.Workloads.Registry.w_name
        w.Workloads.Registry.w_source)
    [ Workloads.Registry.cordtest; Workloads.Registry.gawk; Workloads.Registry.gs ]

let test_checked_output_is_source () =
  (* checked output is plain ANSI C (GC_* are ordinary functions): "It
     should be possible to make the output in source-code-checking mode
     usable with any ANSI C compiler." *)
  List.iter
    (fun w ->
      roundtrip_config Mode.Checked w.Workloads.Registry.w_name
        w.Workloads.Registry.w_source)
    [ Workloads.Registry.cfrac; Workloads.Registry.gs ]

let test_printed_safe_output_reparses_structurally () =
  (* KEEP_LIVE(e, b) survives a print/parse cycle as the primitive *)
  let src = "char f(char *x) { return x[1]; } int main(void) { return 0; }" in
  let printed = Pretty.program_to_string (annotate Mode.Safe src) in
  let reparsed = Parser.parse_program printed in
  let count = ref 0 in
  List.iter
    (function
      | Ast.Gfunc f ->
          ignore
            (Ast.fold_stmt_exprs
               (fun () e ->
                 match e.Ast.edesc with
                 | Ast.KeepLive (_, Some _) -> incr count
                 | _ -> ())
               () f.Ast.f_body)
      | _ -> ())
    reparsed.Ast.prog_globals;
  Alcotest.(check int) "one KEEP_LIVE node" 1 !count

let test_double_annotation_rejected () =
  (* feeding annotated ASTs back into the annotator is a source error the
     implementation must catch, not silently double-wrap *)
  let src = "char f(char *x) { return x[1]; } int main(void) { return 0; }" in
  let once = annotate Mode.Safe src in
  match Annotate.run ~opts:(Mode.default Mode.Safe) once with
  | exception Normalize.Already_annotated _ -> ()
  | _ -> Alcotest.fail "expected rejection of already-annotated input"

let test_annotated_source_through_cli_shape () =
  (* the annotated text contains no unprintable artifacts: it lexes
     cleanly and has balanced braces *)
  let printed =
    Pretty.program_to_string
      (annotate Mode.Safe Workloads.Registry.cordtest.Workloads.Registry.w_source)
  in
  let toks = Lexer.tokenize printed in
  let depth = ref 0 in
  Array.iter
    (fun t ->
      match t.Lexer.t with
      | Token.LBRACE -> incr depth
      | Token.RBRACE -> decr depth
      | _ -> ())
    toks;
  Alcotest.(check int) "balanced braces" 0 !depth

let suite =
  [
    Alcotest.test_case "safe output is compilable source" `Slow
      test_safe_output_is_source;
    Alcotest.test_case "checked output is plain ANSI C" `Slow
      test_checked_output_is_source;
    Alcotest.test_case "KEEP_LIVE survives print/parse" `Quick
      test_printed_safe_output_reparses_structurally;
    Alcotest.test_case "double annotation rejected" `Quick
      test_double_annotation_rejected;
    Alcotest.test_case "annotated text lexes cleanly" `Quick
      test_annotated_source_through_cli_shape;
  ]
