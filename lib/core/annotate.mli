(** The annotation algorithm: KEEP_LIVE / checking-call insertion.

    Every pointer-valued expression occurring as the right side of an
    assignment, the argument of a dereferencing operation, or a function
    argument or result is replaced by [KEEP_LIVE(e, BASE(e))] (Safe mode)
    or a [GC_same_obj]-family call (Checked mode); increment and decrement
    operators are treated as assignments, expanded by one update rule
    that includes the paper's optimization (2).  See {!Mode.options} for
    optimizations (1) and (4) and the Extensions-mode store discipline. *)

exception Unnormalized of string * Csyntax.Loc.t
(** BASE was queried on a generating expression: the input was not run
    through {!Normalize}. *)

(** {1 Insertion and suppression statistics}

    Every annotation site belongs to one insertion rule; under
    [Mode.analysis = A_flow] each site a dataflow client proves redundant
    is suppressed instead, and the reason is recorded. *)

type rule =
  | R_value  (** assignment right sides, call arguments, returns *)
  | R_access  (** the [*&(...)] wrap of a memory access's address *)
  | R_arith  (** pointer arithmetic updates: [++]/[--]/[op=] expansion *)
  | R_check  (** checked-mode extent/base checks (GC_check_range/base) *)

val rule_name : rule -> string

val all_rules : rule list

type reason =
  | S_flow_heap  (** flow-sensitive: not heapy at this program point *)
  | S_live  (** base live across the site, rooted by its own location *)

val reason_name : reason -> string

val all_reasons : reason list

type suppression = {
  sup_func : string;  (** enclosing function *)
  sup_base : string;  (** the base variable the site would have kept live *)
  sup_rule : rule;  (** the rule that would have inserted it *)
  sup_reason : reason;  (** why it was proved redundant *)
  sup_loc : Csyntax.Loc.t;
}

type stats = {
  st_by_rule : (rule * int) list;  (** insertions per rule *)
  st_by_reason : (reason * int) list;  (** suppressions per analysis *)
  st_suppressions : suppression list;  (** every suppressed site, in order *)
  st_by_func : (string * int) list;
      (** insertions per function, in program order — joins against the
          heap profiler's per-site function names *)
}

type result = {
  program : Csyntax.Ast.program;
  keep_live_count : int;
      (** number of KEEP_LIVE / check insertions: the sum of
          [stats.st_by_rule], and the number of [KeepLive] and
          [RuntimeCall] nodes in [program] *)
  stats : stats;  (** per-rule insertions and per-analysis suppressions *)
}

val annotate_program :
  ?opts:Mode.options -> Csyntax.Ast.program -> result
(** Annotate a type-annotated, {!Normalize}d program.  The result is
    re-type-checked so every node carries its type. *)

val run : ?opts:Mode.options -> Csyntax.Ast.program -> result
(** The full preprocessor front half: type-check, normalize, annotate. *)
