(** Pretty-printer: AST back to C source.  Parenthesization follows
    operator precedence, so output re-parses to the same tree. *)

val pp_expr : Format.formatter -> Ast.expr -> unit

val expr_to_string : Ast.expr -> string

val init_to_string : Ast.expr -> string
(** An expression printed for an initializer (or argument) position: at
    assignment precedence, so a comma expression keeps its parentheses. *)

val pp_stmt : Format.formatter -> Ast.stmt -> unit

val stmt_to_string : Ast.stmt -> string

val pp_func : Format.formatter -> Ast.func -> unit

val pp_global : Format.formatter -> Ast.global -> unit

val pp_program : Format.formatter -> Ast.program -> unit

val program_to_string : Ast.program -> string
