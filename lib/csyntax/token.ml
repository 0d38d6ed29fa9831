(** Tokens produced by the mini-C lexer. *)

type t =
  | INT_LIT of int
  | CHAR_LIT of char
  | STR_LIT of string
  | FLOAT_LIT of float
  | IDENT of string
  (* keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_DOUBLE
  | KW_UNSIGNED
  | KW_SIGNED
  | KW_STRUCT
  | KW_UNION
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_SIZEOF
  | KW_EXTERN
  | KW_STATIC
  | KW_CONST
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | DOT
  | ARROW
  | QUESTION
  | COLON
  | ELLIPSIS
  (* operators *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | BAR
  | CARET
  | TILDE
  | BANG
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NE
  | ANDAND
  | OROR
  | SHL
  | SHR
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | SLASH_ASSIGN
  | PERCENT_ASSIGN
  | AMP_ASSIGN
  | BAR_ASSIGN
  | CARET_ASSIGN
  | SHL_ASSIGN
  | SHR_ASSIGN
  | PLUSPLUS
  | MINUSMINUS
  | EOF

(** The token a word lexes to: its keyword, else an identifier.  This is
    the only list of the subset's keywords; a string [match] compiles to a
    search on the word's bytes, so a lookup allocates nothing. *)
let of_word = function
  | "void" -> KW_VOID
  | "char" -> KW_CHAR
  | "short" -> KW_SHORT
  | "int" -> KW_INT
  | "long" -> KW_LONG
  | "float" -> KW_FLOAT
  | "double" -> KW_DOUBLE
  | "unsigned" -> KW_UNSIGNED
  | "signed" -> KW_SIGNED
  | "struct" -> KW_STRUCT
  | "union" -> KW_UNION
  | "if" -> KW_IF
  | "else" -> KW_ELSE
  | "while" -> KW_WHILE
  | "do" -> KW_DO
  | "for" -> KW_FOR
  | "return" -> KW_RETURN
  | "break" -> KW_BREAK
  | "continue" -> KW_CONTINUE
  | "sizeof" -> KW_SIZEOF
  | "extern" -> KW_EXTERN
  | "static" -> KW_STATIC
  | "const" -> KW_CONST
  | s -> IDENT s

let to_string = function
  | INT_LIT n -> string_of_int n
  | CHAR_LIT c -> Printf.sprintf "%C" c
  | STR_LIT s -> Printf.sprintf "%S" s
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_UNSIGNED -> "unsigned"
  | KW_SIGNED -> "signed"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_SIZEOF -> "sizeof"
  | KW_EXTERN -> "extern"
  | KW_STATIC -> "static"
  | KW_CONST -> "const"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | ARROW -> "->"
  | QUESTION -> "?"
  | COLON -> ":"
  | ELLIPSIS -> "..."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | BAR -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | NE -> "!="
  | ANDAND -> "&&"
  | OROR -> "||"
  | SHL -> "<<"
  | SHR -> ">>"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+="
  | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*="
  | SLASH_ASSIGN -> "/="
  | PERCENT_ASSIGN -> "%="
  | AMP_ASSIGN -> "&="
  | BAR_ASSIGN -> "|="
  | CARET_ASSIGN -> "^="
  | SHL_ASSIGN -> "<<="
  | SHR_ASSIGN -> ">>="
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | EOF -> "<eof>"
