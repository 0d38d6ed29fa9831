(** Hand-written lexer for the mini-C subset.

    Produces the full token stream with source locations in one pass.
    Comments (both styles) and whitespace are skipped; `# line` directives
    emitted by a C preprocessor are skipped as well, since the paper runs the
    transformation after macro expansion.

    The scanner reads bytes in place: no character is boxed, and a token
    allocates only its record, its location and its payload. *)

exception Error of string * Loc.t

type tok = { t : Token.t; loc : Loc.t; endpos : int }
(** [endpos] is the offset one past the token's last character, used by the
    source patcher to splice replacement text. *)

type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let loc_of st =
  Loc.make ~line:st.line ~col:(st.pos - st.bol + 1) ~offset:st.pos

(* The byte at [i], or NUL past the end.  Every caller either compares the
   result with a non-NUL character or checks [len] first, so a NUL byte in
   the source is never taken for the end. *)
let[@inline] at st i = if i < st.len then String.unsafe_get st.src i else '\000'

(* Step over the current byte, counting it if it ends a line. *)
let[@inline] advance st =
  if at st st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let[@inline] is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_ident_char c = is_ident_start c || is_digit c

(* Up to, not over, the next newline. *)
let skip_line st =
  while st.pos < st.len && String.unsafe_get st.src st.pos <> '\n' do
    st.pos <- st.pos + 1
  done

let rec skip_block_comment st start =
  if st.pos >= st.len then raise (Error ("unterminated comment", start))
  else if String.unsafe_get st.src st.pos = '*' && at st (st.pos + 1) = '/'
  then st.pos <- st.pos + 2
  else begin
    advance st;
    skip_block_comment st start
  end

let rec skip_trivia st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '/' when at st (st.pos + 1) = '/' ->
        skip_line st;
        skip_trivia st
    | '/' when at st (st.pos + 1) = '*' ->
        let start = loc_of st in
        st.pos <- st.pos + 2;
        skip_block_comment st start;
        skip_trivia st
    | '#' when st.pos = st.bol ->
        (* line directive from cpp: skip the whole line *)
        skip_line st;
        skip_trivia st
    | _ -> ()

let read_escape st start =
  if st.pos >= st.len then raise (Error ("unterminated escape", start));
  let c = String.unsafe_get st.src st.pos in
  advance st;
  match c with
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
  | c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, start))

let int_error st loc start why =
  let text = String.sub st.src start (st.pos - start) in
  raise (Error (Printf.sprintf "integer literal %s %s" text why, loc))

(* Step over integer suffixes ([l], [L], [u], [U]), which change no
   value here. *)
let skip_int_suffixes st =
  while match at st st.pos with 'l' | 'L' | 'u' | 'U' -> true | _ -> false do
    st.pos <- st.pos + 1
  done

(* The integer [text] spells, read as OCaml's [int_of_string] reads it;
   the error names the literal [src.[start .. st.pos - 1]].  A hex or
   octal text up to [2 * max_int + 1] reads as a negative [int]: it is
   out of range, as the same value spelled in decimal is. *)
let int_lit st loc start text =
  match int_of_string_opt text with
  | Some n when n >= 0 -> Token.INT_LIT n
  | Some _ | None -> int_error st loc start "is out of range"

(* A literal is hexadecimal after [0x], octal after any other leading
   [0] (as in C, so [010] is 8) and decimal otherwise. *)
let read_number st loc =
  let start = st.pos in
  if
    String.unsafe_get st.src start = '0'
    && (at st (start + 1) = 'x' || at st (start + 1) = 'X')
  then begin
    st.pos <- start + 2;
    while is_hex_digit (at st st.pos) do
      st.pos <- st.pos + 1
    done;
    if st.pos = start + 2 then int_error st loc start "has no digits";
    let stop = st.pos in
    skip_int_suffixes st;
    int_lit st loc start (String.sub st.src start (stop - start))
  end
  else begin
    while is_digit (at st st.pos) do
      st.pos <- st.pos + 1
    done;
    if at st st.pos = '.' && is_digit (at st (st.pos + 1)) then begin
      st.pos <- st.pos + 1;
      while is_digit (at st st.pos) do
        st.pos <- st.pos + 1
      done;
      Token.FLOAT_LIT (float_of_string (String.sub st.src start (st.pos - start)))
    end
    else begin
      let stop = st.pos in
      skip_int_suffixes st;
      if String.unsafe_get st.src start = '0' && stop - start > 1 then begin
        for i = start + 1 to stop - 1 do
          if String.unsafe_get st.src i > '7' then
            int_error st loc start "has a digit that is not octal"
        done;
        int_lit st loc start
          ("0o" ^ String.sub st.src (start + 1) (stop - start - 1))
      end
      else int_lit st loc start (String.sub st.src start (stop - start))
    end
  end

let read_word st =
  let start = st.pos in
  while is_ident_char (at st st.pos) do
    st.pos <- st.pos + 1
  done;
  Token.of_word (String.sub st.src start (st.pos - start))

let read_char st loc =
  st.pos <- st.pos + 1;
  if st.pos >= st.len then raise (Error ("unterminated char literal", loc));
  let c =
    if String.unsafe_get st.src st.pos = '\\' then begin
      st.pos <- st.pos + 1;
      read_escape st loc
    end
    else begin
      let c = String.unsafe_get st.src st.pos in
      advance st;
      c
    end
  in
  if at st st.pos = '\'' then st.pos <- st.pos + 1
  else raise (Error ("unterminated char literal", loc));
  Token.CHAR_LIT c

(* The rest of a string literal once an escape is met: [buf] holds the
   text before it. *)
let rec read_escaped_string st loc buf =
  if st.pos >= st.len then raise (Error ("unterminated string literal", loc));
  match String.unsafe_get st.src st.pos with
  | '"' ->
      st.pos <- st.pos + 1;
      Token.STR_LIT (Buffer.contents buf)
  | '\\' ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf (read_escape st loc);
      read_escaped_string st loc buf
  | c ->
      advance st;
      Buffer.add_char buf c;
      read_escaped_string st loc buf

(* A literal without escapes is one [String.sub] of the source. *)
let rec read_plain_string st loc start =
  if st.pos >= st.len then raise (Error ("unterminated string literal", loc));
  match String.unsafe_get st.src st.pos with
  | '"' ->
      st.pos <- st.pos + 1;
      Token.STR_LIT (String.sub st.src start (st.pos - 1 - start))
  | '\\' ->
      let buf = Buffer.create (st.pos - start + 16) in
      Buffer.add_substring buf st.src start (st.pos - start);
      read_escaped_string st loc buf
  | _ ->
      advance st;
      read_plain_string st loc start

let[@inline] take st n t =
  st.pos <- st.pos + n;
  t

(* Operators and punctuation, longest match first. *)
let read_punct st c loc =
  let c2 = at st (st.pos + 1) in
  match c with
  | '(' -> take st 1 Token.LPAREN
  | ')' -> take st 1 Token.RPAREN
  | '{' -> take st 1 Token.LBRACE
  | '}' -> take st 1 Token.RBRACE
  | '[' -> take st 1 Token.LBRACKET
  | ']' -> take st 1 Token.RBRACKET
  | ';' -> take st 1 Token.SEMI
  | ',' -> take st 1 Token.COMMA
  | '?' -> take st 1 Token.QUESTION
  | ':' -> take st 1 Token.COLON
  | '~' -> take st 1 Token.TILDE
  | '.' ->
      if c2 = '.' && at st (st.pos + 2) = '.' then take st 3 Token.ELLIPSIS
      else take st 1 Token.DOT
  | '<' ->
      if c2 = '<' then
        if at st (st.pos + 2) = '=' then take st 3 Token.SHL_ASSIGN
        else take st 2 Token.SHL
      else if c2 = '=' then take st 2 Token.LE
      else take st 1 Token.LT
  | '>' ->
      if c2 = '>' then
        if at st (st.pos + 2) = '=' then take st 3 Token.SHR_ASSIGN
        else take st 2 Token.SHR
      else if c2 = '=' then take st 2 Token.GE
      else take st 1 Token.GT
  | '-' -> (
      match c2 with
      | '>' -> take st 2 Token.ARROW
      | '-' -> take st 2 Token.MINUSMINUS
      | '=' -> take st 2 Token.MINUS_ASSIGN
      | _ -> take st 1 Token.MINUS)
  | '+' -> (
      match c2 with
      | '+' -> take st 2 Token.PLUSPLUS
      | '=' -> take st 2 Token.PLUS_ASSIGN
      | _ -> take st 1 Token.PLUS)
  | '&' -> (
      match c2 with
      | '&' -> take st 2 Token.ANDAND
      | '=' -> take st 2 Token.AMP_ASSIGN
      | _ -> take st 1 Token.AMP)
  | '|' -> (
      match c2 with
      | '|' -> take st 2 Token.OROR
      | '=' -> take st 2 Token.BAR_ASSIGN
      | _ -> take st 1 Token.BAR)
  | '*' -> if c2 = '=' then take st 2 Token.STAR_ASSIGN else take st 1 Token.STAR
  | '/' ->
      if c2 = '=' then take st 2 Token.SLASH_ASSIGN else take st 1 Token.SLASH
  | '%' ->
      if c2 = '=' then take st 2 Token.PERCENT_ASSIGN
      else take st 1 Token.PERCENT
  | '^' ->
      if c2 = '=' then take st 2 Token.CARET_ASSIGN else take st 1 Token.CARET
  | '=' -> if c2 = '=' then take st 2 Token.EQEQ else take st 1 Token.ASSIGN
  | '!' -> if c2 = '=' then take st 2 Token.NE else take st 1 Token.BANG
  | c -> raise (Error (Printf.sprintf "unexpected character %C" c, loc))

let cursor src = { src; len = String.length src; pos = 0; line = 1; bol = 0 }

let next st : tok =
  skip_trivia st;
  let loc = loc_of st in
  let t =
    if st.pos >= st.len then Token.EOF
    else
      let c = String.unsafe_get st.src st.pos in
      if is_digit c then read_number st loc
      else if is_ident_start c then read_word st
      else if c = '\'' then read_char st loc
      else if c = '"' then begin
        st.pos <- st.pos + 1;
        read_plain_string st loc st.pos
      end
      else read_punct st c loc
  in
  { t; loc; endpos = st.pos }

let filler = { t = Token.EOF; loc = Loc.dummy; endpos = 0 }

(** Tokenize the whole source string. *)
let tokenize (src : string) : tok array =
  let st = cursor src in
  (* dense C runs about one token per two bytes; the array doubles when a
     source is denser *)
  let toks = ref (Array.make ((st.len / 2) + 16) filler) in
  let n = ref 0 in
  let last = ref false in
  while not !last do
    let tok = next st in
    if !n = Array.length !toks then begin
      let grown = Array.make (2 * !n) filler in
      Array.blit !toks 0 grown 0 !n;
      toks := grown
    end;
    Array.unsafe_set !toks !n tok;
    incr n;
    last := tok.t == Token.EOF
  done;
  Array.sub !toks 0 !n
