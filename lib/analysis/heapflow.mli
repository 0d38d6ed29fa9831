(** Flow-sensitive heapness: per program point, the set of variables that
    may hold a pointer into the collected heap.

    The one classification of variables as heap-or-not: a cursor that
    walks a local buffer and is later retargeted at a heap object is
    heapy only downstream of the retargeting assignment, so its earlier
    dereferences need no KEEP_LIVE.  A forward may-analysis over the
    powerset-of-variables lattice: assignments of possibly-heap values add
    the target; a single unconditional whole-statement assignment of a
    provably non-heap value is a strong update that removes it.

    Soundness guards: escaping (address-taken) variables and globals are
    always heapy — any store or call may retarget them; parameters start
    heapy at function entry; queries about within-statement state answer
    from the union of the statement's in- and out-state, so values that
    are heapy only transiently during one statement's evaluation are
    still reported heapy. *)

type t

val analyze :
  ?cfg:Cfg.t ->
  escape:Escape.t ->
  global:(string -> bool) ->
  Csyntax.Ast.func ->
  t
(** [cfg] lets several clients share one graph (points are compared by
    id); by default a fresh one is built from the function body. *)

val may_be_heap : t -> Cfg.point option -> string -> bool
(** May [v] hold a heap pointer during the evaluation of [point]?
    Conservative ([true]) for unknown points, unreached points, escaping
    variables and globals. *)

val cfg : t -> Cfg.t
