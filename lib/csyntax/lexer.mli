(** Hand-written lexer for the mini-C subset.  Skips both comment styles
    and cpp [# line] directives (the paper runs its transformation after
    macro expansion). *)

exception Error of string * Loc.t

type tok = {
  t : Token.t;
  loc : Loc.t;
  endpos : int;  (** offset one past the token, for the source patcher *)
}

val tokenize : string -> tok array
(** The whole token stream, [EOF]-terminated.  @raise Error on malformed
    input. *)

type cursor
(** A position in a source, for reading its tokens one at a time. *)

val cursor : string -> cursor
(** The cursor at the start of the source. *)

val next : cursor -> tok
(** The next token: the tokens of {!tokenize}, in order, then [EOF] again
    at every call.  @raise Error on malformed input. *)
