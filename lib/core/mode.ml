(** Output modes of the preprocessor.

    [Safe] inserts KEEP_LIVE pseudo-operations that the compiler backend
    lowers to empty-asm-style barriers (GC-safety with minimal overhead).
    [Checked] replaces each KEEP_LIVE by a real call to the collector's
    checking runtime ([GC_same_obj], [GC_pre_incr], [GC_post_incr]),
    turning the preprocessor into a pointer-arithmetic checker; the checking
    calls are opaque to the compiler and therefore also ensure GC-safety,
    "though not in a performance-optimal fashion". *)

type t = Safe | Checked

let to_string = function Safe -> "safe" | Checked -> "checked"

(** Which program analysis prunes annotation sites.

    [A_none] is the paper's implementation: every possibly-heap site is
    annotated.  [A_flow] runs the [lib/analysis] dataflow clients
    (escape, flow-sensitive heapness, demand-driven liveness), the one
    analysis that decides a base cannot hold a heap pointer, and
    suppresses sites they prove redundant. *)
type analysis = A_none | A_flow

let analysis_to_string = function A_none -> "none" | A_flow -> "flow"

let analysis_of_string = function
  | "none" -> Some A_none
  | "flow" -> Some A_flow
  | _ -> None

type options = {
  mode : t;
  suppress_copies : bool;
      (** the paper's optimization (1): no KEEP_LIVE around expressions that
          are statically just copies of values stored elsewhere *)
  (* optimization (2), the specialized expansion of [++]/[--] that leaves
     a variable in its register, is part of [Annotate]'s one update rule *)
  (* optimization (3), slowly-varying loop base pointers, is a separate
     pass over the annotated program: [Loop_heuristic.apply] *)
  calls_only : bool;
      (** the paper's optimization (4): "If we know that garbage
          collections can be triggered only at procedure calls, the number
          of KEEP_LIVE invocations could often be reduced dramatically" —
          skip annotations inside statements that perform no calls *)
  check_base_stores : bool;
      (** the Extensions section: "asserting that the client program
          stores only pointers to the base of an object in the heap or in
          statically allocated variables ... It would again be possible to
          insert dynamic checks to verify this" — in Checked mode, wrap
          pointer stores to non-local locations with GC_check_base *)
  analysis : analysis;
      (** dataflow-analysis-directed suppression of annotation sites (the
          "sufficiently good program analysis" the paper points at).
          [A_none] here so the library default reproduces the paper's
          algorithm verbatim; the build harness and the CLI default to
          [A_flow]. *)
}

let default mode =
  {
    mode;
    suppress_copies = true;
    calls_only = false;
    check_base_stores = false;
    analysis = A_none;
  }
