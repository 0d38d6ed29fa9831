(* Reference lexer: the option-per-character lexer that [Csyntax.Lexer]
   replaced, kept unchanged apart from its own keyword list, C's reading
   of integer literals (octal after a leading [0], suffixes after hex)
   and this header.  [suite_lexer] checks that the library lexer produces
   the same tokens, locations, end offsets and errors.  The intended
   differences: a malformed or out-of-range integer literal raises
   [Failure] here and [Lexer.Error] there, and a hex or octal literal
   past [max_int], which wraps to a negative [int] here, is out of range
   there. *)

open Csyntax

exception Error of string * Loc.t

type tok = Lexer.tok = { t : Token.t; loc : Loc.t; endpos : int }

let keyword_table =
  Token.
    [
      ("void", KW_VOID);
      ("char", KW_CHAR);
      ("short", KW_SHORT);
      ("int", KW_INT);
      ("long", KW_LONG);
      ("float", KW_FLOAT);
      ("double", KW_DOUBLE);
      ("unsigned", KW_UNSIGNED);
      ("signed", KW_SIGNED);
      ("struct", KW_STRUCT);
      ("union", KW_UNION);
      ("if", KW_IF);
      ("else", KW_ELSE);
      ("while", KW_WHILE);
      ("do", KW_DO);
      ("for", KW_FOR);
      ("return", KW_RETURN);
      ("break", KW_BREAK);
      ("continue", KW_CONTINUE);
      ("sizeof", KW_SIZEOF);
      ("extern", KW_EXTERN);
      ("static", KW_STATIC);
      ("const", KW_CONST);
    ]

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let loc_of st =
  Loc.make ~line:st.line ~col:(st.pos - st.bol + 1) ~offset:st.pos

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
      let start = loc_of st in
      advance st;
      advance st;
      let rec loop () =
        match peek st with
        | None -> raise (Error ("unterminated comment", start))
        | Some '*' when peek2 st = Some '/' ->
            advance st;
            advance st
        | Some _ ->
            advance st;
            loop ()
      in
      loop ();
      skip_trivia st
  | Some '#' when st.pos = st.bol ->
      (* line directive from cpp: skip the whole line *)
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_trivia st
  | Some _ | None -> ()

let read_escape st start =
  match peek st with
  | None -> raise (Error ("unterminated escape", start))
  | Some c ->
      advance st;
      (match c with
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'r' -> '\r'
      | '0' -> '\000'
      | '\\' -> '\\'
      | '\'' -> '\''
      | '"' -> '"'
      | 'a' -> '\007'
      | 'b' -> '\b'
      | 'f' -> '\012'
      | 'v' -> '\011'
      | c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, start)))

let swallow_int_suffixes st =
  while
    match peek st with
    | Some ('l' | 'L' | 'u' | 'U') -> true
    | Some _ | None -> false
  do
    advance st
  done

let read_number st =
  let start = st.pos in
  let hex =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  if hex then begin
    advance st;
    advance st;
    while
      match peek st with
      | Some c ->
          is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
      | None -> false
    do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    swallow_int_suffixes st;
    Token.INT_LIT (int_of_string text)
  end
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let is_float =
      match (peek st, peek2 st) with
      | Some '.', Some c when is_digit c -> true
      | _ -> false
    in
    if is_float then begin
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      Token.FLOAT_LIT (float_of_string (String.sub st.src start (st.pos - start)))
    end
    else begin
      swallow_int_suffixes st;
      let text = String.sub st.src start (st.pos - start) in
      let digits =
        String.to_seq text
        |> Seq.filter (fun c -> is_digit c)
        |> String.of_seq
      in
      (* a leading 0 makes the literal octal, as in C *)
      if String.length digits > 1 && digits.[0] = '0' then
        Token.INT_LIT
          (int_of_string
             ("0o" ^ String.sub digits 1 (String.length digits - 1)))
      else Token.INT_LIT (int_of_string digits)
    end
  end

let next_token st : tok =
  skip_trivia st;
  let loc = loc_of st in
  let simple t =
    advance st;
    { t; loc; endpos = st.pos }
  in
  let two t =
    advance st;
    advance st;
    { t; loc; endpos = st.pos }
  in
  let three t =
    advance st;
    advance st;
    advance st;
    { t; loc; endpos = st.pos }
  in
  match peek st with
  | None -> { t = Token.EOF; loc; endpos = st.pos }
  | Some c when is_digit c ->
      let t = read_number st in
      { t; loc; endpos = st.pos }
  | Some c when is_ident_start c ->
      let start = st.pos in
      while (match peek st with Some c -> is_ident_char c | None -> false) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      let t =
        match List.assoc_opt text keyword_table with
        | Some kw -> kw
        | None -> Token.IDENT text
      in
      { t; loc; endpos = st.pos }
  | Some '\'' ->
      advance st;
      let c =
        match peek st with
        | None -> raise (Error ("unterminated char literal", loc))
        | Some '\\' ->
            advance st;
            read_escape st loc
        | Some c ->
            advance st;
            c
      in
      (match peek st with
      | Some '\'' -> advance st
      | Some _ | None -> raise (Error ("unterminated char literal", loc)));
      { t = Token.CHAR_LIT c; loc; endpos = st.pos }
  | Some '"' ->
      advance st;
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek st with
        | None -> raise (Error ("unterminated string literal", loc))
        | Some '"' -> advance st
        | Some '\\' ->
            advance st;
            Buffer.add_char buf (read_escape st loc);
            loop ()
        | Some c ->
            advance st;
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      { t = Token.STR_LIT (Buffer.contents buf); loc; endpos = st.pos }
  | Some c -> (
      let c2 = peek2 st in
      let c3 =
        if st.pos + 2 < String.length st.src then Some st.src.[st.pos + 2]
        else None
      in
      match (c, c2, c3) with
      | '.', Some '.', Some '.' -> three Token.ELLIPSIS
      | '<', Some '<', Some '=' -> three Token.SHL_ASSIGN
      | '>', Some '>', Some '=' -> three Token.SHR_ASSIGN
      | '-', Some '>', _ -> two Token.ARROW
      | '+', Some '+', _ -> two Token.PLUSPLUS
      | '-', Some '-', _ -> two Token.MINUSMINUS
      | '+', Some '=', _ -> two Token.PLUS_ASSIGN
      | '-', Some '=', _ -> two Token.MINUS_ASSIGN
      | '*', Some '=', _ -> two Token.STAR_ASSIGN
      | '/', Some '=', _ -> two Token.SLASH_ASSIGN
      | '%', Some '=', _ -> two Token.PERCENT_ASSIGN
      | '&', Some '=', _ -> two Token.AMP_ASSIGN
      | '|', Some '=', _ -> two Token.BAR_ASSIGN
      | '^', Some '=', _ -> two Token.CARET_ASSIGN
      | '&', Some '&', _ -> two Token.ANDAND
      | '|', Some '|', _ -> two Token.OROR
      | '<', Some '<', _ -> two Token.SHL
      | '>', Some '>', _ -> two Token.SHR
      | '<', Some '=', _ -> two Token.LE
      | '>', Some '=', _ -> two Token.GE
      | '=', Some '=', _ -> two Token.EQEQ
      | '!', Some '=', _ -> two Token.NE
      | '(', _, _ -> simple Token.LPAREN
      | ')', _, _ -> simple Token.RPAREN
      | '{', _, _ -> simple Token.LBRACE
      | '}', _, _ -> simple Token.RBRACE
      | '[', _, _ -> simple Token.LBRACKET
      | ']', _, _ -> simple Token.RBRACKET
      | ';', _, _ -> simple Token.SEMI
      | ',', _, _ -> simple Token.COMMA
      | '.', _, _ -> simple Token.DOT
      | '?', _, _ -> simple Token.QUESTION
      | ':', _, _ -> simple Token.COLON
      | '+', _, _ -> simple Token.PLUS
      | '-', _, _ -> simple Token.MINUS
      | '*', _, _ -> simple Token.STAR
      | '/', _, _ -> simple Token.SLASH
      | '%', _, _ -> simple Token.PERCENT
      | '&', _, _ -> simple Token.AMP
      | '|', _, _ -> simple Token.BAR
      | '^', _, _ -> simple Token.CARET
      | '~', _, _ -> simple Token.TILDE
      | '!', _, _ -> simple Token.BANG
      | '<', _, _ -> simple Token.LT
      | '>', _, _ -> simple Token.GT
      | '=', _, _ -> simple Token.ASSIGN
      | c, _, _ -> raise (Error (Printf.sprintf "unexpected character %C" c, loc)))

(** Tokenize the whole source string. *)
let tokenize (src : string) : tok array =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let acc = ref [] in
  let rec loop () =
    let tok = next_token st in
    acc := tok :: !acc;
    if tok.t <> Token.EOF then loop ()
  in
  loop ();
  Array.of_list (List.rev !acc)
