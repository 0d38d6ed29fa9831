(* Parser unit tests: structure checks plus pretty-print round-trips. *)

open Csyntax

let parse_ok src =
  try ignore (Parser.parse_program src)
  with Parser.Error (m, loc) ->
    Alcotest.failf "parse error at %s: %s" (Loc.to_string loc) m

let parse_fails src =
  match Parser.parse_program src with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected parse error on %S" src

let expr src = Parser.parse_expr_string src

let expr_str src = Pretty.expr_to_string (expr src)

(* round trip: parse, print, parse, print — the two strings must agree *)
let roundtrip src =
  let p1 = Parser.parse_program src in
  let s1 = Pretty.program_to_string p1 in
  let p2 = Parser.parse_program s1 in
  let s2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "round trip" s1 s2

let test_precedence () =
  let same a b =
    Alcotest.(check string) (a ^ " == " ^ b) (expr_str b) (expr_str a)
  in
  same "a + b * c" "a + (b * c)";
  same "a * b + c" "(a * b) + c";
  same "a - b - c" "(a - b) - c";
  same "a = b = c" "a = (b = c)";
  same "a ? b : c ? d : e" "a ? b : (c ? d : e)";
  same "a || b && c" "a || (b && c)";
  same "a & b == c" "a & (b == c)";
  same "a << b + c" "a << (b + c)";
  same "-a * b" "(-a) * b";
  same "*p++" "*(p++)";
  same "!a && b" "(!a) && b"

let test_postfix_chains () =
  Alcotest.(check string) "chain" "a[1][2].f->g"
    (expr_str "a[1][2].f->g");
  Alcotest.(check string) "call in index" "a[f(x, y)]"
    (expr_str "a[f(x,y)]")

let test_unary () =
  Alcotest.(check string) "addr deref" "&*p" (expr_str "&*p");
  Alcotest.(check string) "pre" "++x" (expr_str "++x");
  Alcotest.(check string) "sizeof type" "sizeof(int *)"
    (expr_str "sizeof(int*)");
  Alcotest.(check string) "sizeof expr" "sizeof x" (expr_str "sizeof x");
  Alcotest.(check string) "cast" "(char *)p" (expr_str "(char *) p")

let test_comma_vs_args () =
  (* the comma operator must be parenthesized in argument lists *)
  match (expr "f((a, b), c)").Ast.edesc with
  | Ast.Call ("f", [ { Ast.edesc = Ast.Comma _; _ }; _ ]) -> ()
  | _ -> Alcotest.fail "comma argument structure"

let test_declarations () =
  parse_ok "int x; char *p; long arr[10]; int m[3][4];";
  parse_ok "int a = 1, b = 2, c;";
  parse_ok "struct s { int x; struct s *next; }; struct s *head;";
  parse_ok "union u { int i; char c[4]; };";
  parse_ok "extern int puts(const char *s);";
  parse_ok "static int counter;";
  parse_ok "unsigned int x; signed char c; unsigned long ul;";
  parse_ok "short s; long int li; short int si;";
  parse_ok "int f(void);";
  parse_ok "int g(int, char *);";
  parse_ok "int h(int a, ...);"

let test_block_declarators () =
  (* each declarator is an item of the enclosing block, as if declared
     alone: no nested block, no scope of its own *)
  let grouped = "int main(void) { long a = 1, b = 2; return (int)(a + b); }"
  and separate =
    "int main(void) { long a = 1; long b = 2; return (int)(a + b); }"
  in
  let body src =
    match (Parser.parse_program src).Ast.prog_globals with
    | [ Ast.Gfunc f ] -> f.Ast.f_body
    | _ -> Alcotest.fail "one function expected"
  in
  (match (body grouped).Ast.sdesc with
  | Ast.Sblock
      [
        { Ast.sdesc = Ast.Sdecl { Ast.d_name = "a"; _ }; _ };
        { Ast.sdesc = Ast.Sdecl { Ast.d_name = "b"; _ }; _ };
        { Ast.sdesc = Ast.Sreturn _; _ };
      ] ->
      ()
  | _ -> Alcotest.fail "declarators are not items of the block");
  roundtrip grouped;
  Alcotest.(check string)
    "prints as separate declarations"
    (Pretty.stmt_to_string (body separate))
    (Pretty.stmt_to_string (body grouped))

let test_statements () =
  parse_ok
    {|
int main(void) {
  int i;
  for (i = 0; i < 10; i++) { if (i == 5) break; else continue; }
  for (;;) break;
  while (1) break;
  do i--; while (i > 0);
  ;
  { int nested = 1; nested++; }
  return 0;
}
|}

let test_dangling_else () =
  let p =
    Parser.parse_program
      "int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }"
  in
  (* the else binds to the inner if *)
  match p.Ast.prog_globals with
  | [ Ast.Gfunc f ] -> (
      match f.Ast.f_body.Ast.sdesc with
      | Ast.Sblock [ { Ast.sdesc = Ast.Sif (_, inner, None); _ }; _ ] -> (
          match inner.Ast.sdesc with
          | Ast.Sif (_, _, Some _) -> ()
          | _ -> Alcotest.fail "else should attach to inner if")
      | _ -> Alcotest.fail "unexpected body shape")
  | _ -> Alcotest.fail "unexpected globals"

let test_adjacent_strings () =
  match (expr {|"foo" "bar"|}).Ast.edesc with
  | Ast.StrLit "foobar" -> ()
  | _ -> Alcotest.fail "adjacent string literals concatenate"

let test_errors () =
  parse_fails "int f( { }";
  parse_fails "int x = ;";
  parse_fails "int main(void) { return 1 }";
  parse_fails "struct { int x; };" (* anonymous structs not in subset *)

let test_roundtrips () =
  roundtrip Workloads.Cord.source;
  roundtrip Workloads.Cfrac.source;
  roundtrip Workloads.Gawk.source;
  roundtrip Workloads.Gs.source;
  (* an initializer is no comma position: its comma keeps the parentheses *)
  roundtrip "long n = (1, 2); char *f(char *p) { char *q = (p++, p); return q; }"

let test_global_arrays_and_inits () =
  parse_ok "int table[64]; char *msg = \"hi\"; int z = 3 * 4 + 1;";
  parse_ok "char buf[];" (* incomplete arrays parse; typecheck rejects *)

(* The parser reads tokens as it goes, yet a lexical error anywhere in the
   source wins over a parse or type error before it, as when the whole
   source was tokenized first. *)
let lex_error_of src =
  match Lexer.tokenize src with
  | exception Lexer.Error (m, loc) -> Some (m, loc)
  | _ -> None

let parse_outcome parse src =
  match parse src with
  | _ -> `Parsed
  | exception Lexer.Error (m, loc) -> `Lex_error (m, loc)
  | exception _ -> `Other_error

let lex_errors_win parse src =
  match (lex_error_of src, parse_outcome parse src) with
  | Some e, `Lex_error e' -> e = e'
  | Some _, (`Parsed | `Other_error) -> false
  | None, `Lex_error _ -> false
  | None, (`Parsed | `Other_error) -> true

let test_lex_errors_win () =
  List.iter
    (fun src ->
      Alcotest.(check bool) src true (lex_errors_win Parser.parse_program src))
    [
      "int main(void) { return 1 } `";
      "int f( { } char *s = \"open";
      "struct s { struct nope x; }; long n = 0x;";
    ];
  Alcotest.(check bool) "expression" true
    (lex_errors_win Parser.parse_expr_string "1 2 /* open")

let prop_lex_errors_win =
  QCheck.Test.make ~count:500
    ~name:"a lexical error anywhere wins over parse errors"
    (QCheck.make ~print:(Printf.sprintf "%S") Suite_lexer.mutant_gen)
    (lex_errors_win Parser.parse_program)

let suite =
  [
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "postfix chains" `Quick test_postfix_chains;
    Alcotest.test_case "unary" `Quick test_unary;
    Alcotest.test_case "comma vs arguments" `Quick test_comma_vs_args;
    Alcotest.test_case "declarations" `Quick test_declarations;
    Alcotest.test_case "block declarators are block items" `Quick
      test_block_declarators;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "dangling else" `Quick test_dangling_else;
    Alcotest.test_case "adjacent strings" `Quick test_adjacent_strings;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "workload round trips" `Quick test_roundtrips;
    Alcotest.test_case "globals and initializers" `Quick
      test_global_arrays_and_inits;
    Alcotest.test_case "lexical errors win" `Quick test_lex_errors_win;
    QCheck_alcotest.to_alcotest prop_lex_errors_win;
  ]
