(* Lexer unit tests. *)

open Csyntax

let toks src =
  Array.to_list (Lexer.tokenize src) |> List.map (fun t -> t.Lexer.t)

let check_toks name src expected =
  Alcotest.(check (list string))
    name
    (expected @ [ "<eof>" ])
    (List.map Token.to_string (toks src))

let test_idents_keywords () =
  check_toks "keywords vs identifiers" "int intx if iffy while_ do"
    [ "int"; "intx"; "if"; "iffy"; "while_"; "do" ]

let test_numbers () =
  (match toks "0 42 0x1F 100L 7u" with
  | [ Token.INT_LIT 0; INT_LIT 42; INT_LIT 31; INT_LIT 100; INT_LIT 7; EOF ] ->
      ()
  | ts ->
      Alcotest.failf "bad numbers: %s"
        (String.concat " " (List.map Token.to_string ts)));
  match toks "3.5 0.25" with
  | [ Token.FLOAT_LIT a; FLOAT_LIT b; EOF ] ->
      Alcotest.(check (float 1e-9)) "3.5" 3.5 a;
      Alcotest.(check (float 1e-9)) "0.25" 0.25 b
  | _ -> Alcotest.fail "bad floats"

let test_char_literals () =
  match toks {|'a' '\n' '\0' '\\' '\''|} with
  | [ Token.CHAR_LIT 'a'; CHAR_LIT '\n'; CHAR_LIT '\000'; CHAR_LIT '\\';
      CHAR_LIT '\''; EOF ] ->
      ()
  | ts ->
      Alcotest.failf "bad chars: %s"
        (String.concat " " (List.map Token.to_string ts))

let test_string_literals () =
  match toks {|"hi" "a\tb" ""|} with
  | [ Token.STR_LIT "hi"; STR_LIT "a\tb"; STR_LIT ""; EOF ] -> ()
  | _ -> Alcotest.fail "bad strings"

let test_operators () =
  check_toks "multichar operators"
    "<<= >>= ... -> ++ -- += -= *= /= %= &= |= ^= && || << >> <= >= == != ="
    [ "<<="; ">>="; "..."; "->"; "++"; "--"; "+="; "-="; "*="; "/="; "%=";
      "&="; "|="; "^="; "&&"; "||"; "<<"; ">>"; "<="; ">="; "=="; "!="; "=" ]

let test_adjacent_operators () =
  (* a+++b lexes greedily as a ++ + b *)
  check_toks "maximal munch" "a+++b" [ "a"; "++"; "+"; "b" ]

let test_comments () =
  check_toks "comments skipped" "a /* b c */ d // e\nf" [ "a"; "d"; "f" ];
  check_toks "nested-ish comment body" "x /* * / ** // */ y" [ "x"; "y" ]

let test_line_directives () =
  check_toks "cpp line markers skipped" "# 1 \"foo.c\"\nint x;\n# 2\n;"
    [ "int"; "x"; ";"; ";" ]

let test_positions () =
  let ts = Lexer.tokenize "ab\n  cd" in
  let t0 = ts.(0) and t1 = ts.(1) in
  Alcotest.(check int) "line 1" 1 t0.Lexer.loc.Loc.line;
  Alcotest.(check int) "col 1" 1 t0.Lexer.loc.Loc.col;
  Alcotest.(check int) "offset 0" 0 t0.Lexer.loc.Loc.offset;
  Alcotest.(check int) "endpos" 2 t0.Lexer.endpos;
  Alcotest.(check int) "line 2" 2 t1.Lexer.loc.Loc.line;
  Alcotest.(check int) "col 3" 3 t1.Lexer.loc.Loc.col;
  Alcotest.(check int) "offset 5" 5 t1.Lexer.loc.Loc.offset

let test_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected lexer error on %S" src
  in
  expect_error "\"unterminated";
  expect_error "'a";
  expect_error "/* never closed";
  expect_error "`";
  (* integer literals that do not fit, or spell no digits, are source
     errors at the literal, not [Failure "int_of_string"] *)
  expect_error "int main(void) { return 0x; }";
  expect_error "12345678901234567890";
  expect_error "0x123456789abcdef0123";
  (* 2^62 in hex and octal: [int_of_string] would wrap them to [min_int];
     [max_int] one below still lexes *)
  expect_error "0x4000000000000000";
  expect_error "0400000000000000000000";
  (match toks "0x3FFFFFFFFFFFFFFF 0377777777777777777777" with
  | [ Token.INT_LIT a; INT_LIT b; EOF ] when a = max_int && b = max_int -> ()
  | _ -> Alcotest.fail "max_int in hex or octal does not lex");
  match Lexer.tokenize "int main(void) { return 0x; }" with
  | exception Lexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "integer literal 0x has no digits" msg;
      Alcotest.(check (pair int int)) "at the literal" (1, 25)
        (loc.Loc.line, loc.Loc.col)
  | _ -> Alcotest.fail "0x lexed"

let test_integer_suffix_garbling () =
  (* suffixed literals keep their numeric value *)
  match toks "10l 10L 10u 10UL" with
  | [ Token.INT_LIT 10; INT_LIT 10; INT_LIT 10; INT_LIT 10; EOF ] -> ()
  | _ -> Alcotest.fail "bad suffixed literals"

let test_octal_literals () =
  (* a leading 0 makes a literal octal, as in C; 0 alone and a float with
     a leading 0 stay what they were *)
  (match toks "010 0 00 0777 017L 0.5 010.5" with
  | [ Token.INT_LIT 8; INT_LIT 0; INT_LIT 0; INT_LIT 511; INT_LIT 15;
      FLOAT_LIT a; FLOAT_LIT b; EOF ] ->
      Alcotest.(check (float 1e-9)) "0.5" 0.5 a;
      Alcotest.(check (float 1e-9)) "010.5" 10.5 b
  | ts ->
      Alcotest.failf "bad octal literals: %s"
        (String.concat " " (List.map Token.to_string ts)));
  List.iter
    (fun (src, msg, col) ->
      match Lexer.tokenize src with
      | exception Lexer.Error (m, loc) ->
          Alcotest.(check string) (src ^ ": message") msg m;
          Alcotest.(check (pair int int)) (src ^ ": at the literal") (1, col)
            (loc.Loc.line, loc.Loc.col)
      | _ -> Alcotest.failf "%S lexed" src)
    [
      ("x = 08;", "integer literal 08 has a digit that is not octal", 5);
      ("x = 0791u;", "integer literal 0791u has a digit that is not octal", 5);
    ]

let test_hex_suffixes () =
  (match toks "0x1FL 0x10u 0XffUL 0x7lu" with
  | [ Token.INT_LIT 31; INT_LIT 16; INT_LIT 255; INT_LIT 7; EOF ] -> ()
  | ts ->
      Alcotest.failf "bad suffixed hex literals: %s"
        (String.concat " " (List.map Token.to_string ts)));
  check_toks "suffix ends the literal" "long x = 0x1FL;"
    [ "long"; "x"; "="; "31"; ";" ];
  match Lexer.tokenize "0xL" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "no digits" "integer literal 0x has no digits" msg
  | _ -> Alcotest.fail "0xL lexed"

(* --- the library lexer against the reference lexer ----------------------- *)

let outcome_of tokenize src =
  match tokenize src with
  | toks -> Ok (Array.to_list toks)
  | exception Lexer.Error (msg, loc) -> Error (`Lex (msg, loc))
  | exception Lexer_reference.Error (msg, loc) -> Error (`Lex (msg, loc))
  | exception Failure f -> Error (`Failure f)

let pp_loc (l : Loc.t) = Printf.sprintf "%d:%d@%d" l.Loc.line l.Loc.col l.Loc.offset

let describe = function
  | Ok toks -> Printf.sprintf "%d tokens" (List.length toks)
  | Error (`Lex (msg, loc)) -> Printf.sprintf "Error %S at %s" msg (pp_loc loc)
  | Error (`Failure f) -> Printf.sprintf "Failure %S" f

let rec first_difference i (a : Lexer.tok list) (b : Lexer.tok list) =
  match (a, b) with
  | x :: a, y :: b ->
      if x = y then first_difference (i + 1) a b
      else
        Some
          (Printf.sprintf "token %d: %s %s..%d vs %s %s..%d" i
             (Token.to_string x.Lexer.t) (pp_loc x.Lexer.loc) x.Lexer.endpos
             (Token.to_string y.Lexer.t) (pp_loc y.Lexer.loc) y.Lexer.endpos)
  | [], [] -> None
  | _ -> Some (Printf.sprintf "token %d: one stream ends first" i)

(* [None] when the library lexer agrees with the reference on [src]: the
   same tokens, locations and end offsets, or the same error at the same
   place.  Where the reference fails inside [int_of_string], the library
   must raise [Lexer.Error] at the literal: the place where the reference,
   run on the text before it, puts its end of file.  Where the reference
   wraps a hex or octal literal to a negative [int], the library must
   raise its out-of-range error at that literal. *)
let lexers_disagree src =
  let lib = outcome_of Lexer.tokenize src
  and ref_ = outcome_of Lexer_reference.tokenize src in
  let at_a_literal (loc : Loc.t) =
    let o = loc.Loc.offset in
    o >= 0
    && o < String.length src
    && (match src.[o] with '0' .. '9' -> true | _ -> false)
    &&
    match outcome_of Lexer_reference.tokenize (String.sub src 0 o) with
    | Ok toks -> (List.nth toks (List.length toks - 1)).Lexer.loc = loc
    | Error _ -> false
  in
  match (lib, ref_) with
  | Ok a, Ok b -> first_difference 0 a b
  | Error (`Lex e), Error (`Lex e') when e = e' -> None
  | Error (`Lex (msg, loc)), Error (`Failure "int_of_string")
    when String.starts_with ~prefix:"integer literal " msg && at_a_literal loc
    ->
      None
  | Error (`Lex (msg, loc)), Ok toks
    when String.ends_with ~suffix:" is out of range" msg
         && List.exists
              (fun x ->
                x.Lexer.loc = loc
                && match x.Lexer.t with Token.INT_LIT n -> n < 0 | _ -> false)
              toks ->
      None
  | _ -> Some (describe lib ^ " vs " ^ describe ref_)

let check_same_as_reference name src =
  match lexers_disagree src with
  | None -> ()
  | Some d -> Alcotest.failf "%s: library and reference lexers differ: %s" name d

(* Every real source the repository lexes: the workloads, the stress
   corpus, and Trafficgen's program pool and generated traffic. *)
let real_sources =
  lazy
    (let traffic =
       Service.Trafficgen.generate
         { Service.Trafficgen.default_spec with Service.Trafficgen.g_requests = 1000 }
       |> List.map (fun (_, r) -> r.Harness.Request.source)
     in
     List.map (fun w -> w.Workloads.Registry.w_source) Workloads.Registry.all
     @ List.map (fun t -> t.Stress.Corpus.t_source) Stress.Corpus.examples
     @ Service.Trafficgen.source_pool ~seed:0 64
     @ traffic
     |> List.sort_uniq String.compare)

(* Truncations land inside comments, strings, character literals and
   escapes, and in the middle of each kind of integer literal. *)
let tricky =
  "# 1 \"t.c\"\nint x = 0x1F; /* a \"b\" \\ */ char *s = \"a\\n\\\"q\\\\\";\n\
   // line \\\nchar c = '\\'', d = '\\0', e = '\n'; long n = 123UL + 4.25 \
   + 017L + 0x1FL;\n\
   char *m = \"two\nlines\", *z = \"\"; /* two\nlines */ x = '\n';\n\
   f(a...b) { return a<<=b>>=c->d && e || 0X; }\n 9223372036854775807"

let test_reference_real_sources () =
  let srcs = Lazy.force real_sources in
  Alcotest.(check bool) "over a hundred sources" true (List.length srcs > 100);
  List.iteri
    (fun i src -> check_same_as_reference (Printf.sprintf "source %d" i) src)
    srcs;
  check_same_as_reference "2^62 in hex" "long x = 0x4000000000000000;";
  check_same_as_reference "2^62 in octal" "long x = 0400000000000000000000;";
  for k = 0 to String.length tricky do
    check_same_as_reference
      (Printf.sprintf "tricky, first %d bytes" k)
      (String.sub tricky 0 k)
  done

(* Random byte mutants of the real sources, of windows cut from them and
   of [Testgen] programs: bytes replaced, inserted, deleted and cut off,
   half of them where a comment, literal or escape starts. *)
let mutant_gen =
  let open QCheck.Gen in
  let specials = "\"'\\/*#\n0x9.eLu_`@" in
  let snippets =
    [| "/*"; "*/"; "//"; "\""; "'"; "\\"; "0x"; "0X";
       "99999999999999999999"; "0xFFFFFFFFFFFFFFFFF"; "\n#"; "..."; "\000";
       "'\\"; "1."; "\r\n" |]
  in
  let position src =
    let n = String.length src in
    if n = 0 then return 0
    else
      let* uniform = bool in
      let* i = int_bound n in
      if uniform then return i
      else
        (* the next byte at or after [i] that opens something *)
        let rec find j =
          if j >= n then i
          else if String.contains "\"'\\/0#" src.[j] then j
          else find (j + 1)
        in
        let* after = int_bound 2 in
        return (min n (find i + after))
  in
  let mutate src =
    let* pos = position src in
    let n = String.length src in
    let before = String.sub src 0 pos and after = String.sub src pos (n - pos) in
    let special =
      map (String.get specials) (int_bound (String.length specials - 1))
    in
    frequency
      [
        ( 3,
          let* c = frequency [ (3, special); (1, char) ] in
          let rest = if pos < n then String.sub after 1 (n - pos - 1) else "" in
          return (before ^ String.make 1 c ^ rest) );
        ( 3,
          map
            (fun k -> before ^ snippets.(k) ^ after)
            (int_bound (Array.length snippets - 1)) );
        ( 2,
          let* len = int_bound 8 in
          let cut = min len (n - pos) in
          return (before ^ String.sub after cut (n - pos - cut)) );
        (2, return before);
      ]
  in
  let base =
    let* testgen = int_bound 3 in
    if testgen = 0 then Testgen.program_gen
    else
      let srcs = Array.of_list (Lazy.force real_sources) in
      let* src = oneofa srcs in
      let* window = bool in
      if (not window) || String.length src <= 1500 then return src
      else
        let* start = int_bound (String.length src - 1500) in
        return (String.sub src start 1500)
  in
  let* src = base in
  let* k = int_range 1 4 in
  let rec apply k src =
    if k = 0 then return src else mutate src >>= apply (k - 1)
  in
  apply k src

let prop_reference_mutants =
  QCheck.Test.make ~count:1000
    ~name:"library lexer == reference lexer on byte mutants"
    (QCheck.make ~print:(Printf.sprintf "%S") mutant_gen)
    (fun src ->
      match lexers_disagree src with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let suite =
  [
    Alcotest.test_case "idents and keywords" `Quick test_idents_keywords;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "char literals" `Quick test_char_literals;
    Alcotest.test_case "string literals" `Quick test_string_literals;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "maximal munch" `Quick test_adjacent_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "line directives" `Quick test_line_directives;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "integer suffixes" `Quick test_integer_suffix_garbling;
    Alcotest.test_case "octal literals" `Quick test_octal_literals;
    Alcotest.test_case "hex literal suffixes" `Quick test_hex_suffixes;
    Alcotest.test_case "library lexer == reference on real sources" `Quick
      test_reference_real_sources;
    QCheck_alcotest.to_alcotest prop_reference_mutants;
  ]
