(** Patch-based emission: the annotated program as edits to the original
    source text (the paper's insertion/deletion output discipline).

    {!Annotate} decides every insertion; this module replaces the text of
    each top-level expression (statement expression, condition, [for]
    part, return value, initializer) that annotation changed by the
    annotated expression's text, and inserts the temporary declarations
    after the function body's opening brace.  Text that was not annotated
    keeps its formatting and comments, and re-parsing the result gives the
    annotated program. *)

val emit :
  source:string ->
  original:Csyntax.Ast.program ->
  Csyntax.Ast.program ->
  string
(** [emit ~source ~original annotated], where [original] is [source]
    parsed and [annotated] is {!Annotate.run}'s program for it (after
    {!Loop_heuristic.apply} when that applies).
    @raise Invalid_argument if [annotated] does not keep [original]'s
    statement shapes, or changes an expression without a source span. *)
