(** Structured failure classification shared by every consumer.

    The harness distinguishes ten outcome classes, and each has one
    process exit code.  Exceptions classify here ({!of_exn}); a run's
    {!Measure.outcome} classifies through {!Outcome.classify}, which
    maps every outcome constructor onto one of these classes.

    Exit codes (stable, documented in the CLI header): 0 success,
    1 finding/divergence, 2 source or input error, 3 runtime fault
    detected, 4 resource limit, 5 heap corruption, 6 heap exhausted
    (out of memory under a hard heap limit), 7 task quarantined (a
    supervised task exhausted its attempt cap), 8 rejected under
    overload (admission control shed the request), 9 internal error
    (an unclassified exception — always a bug). *)

type outcome =
  | Ok  (** the program ran to completion *)
  | Source_error  (** lexing, parsing, typing, annotation, compilation *)
  | Fault  (** the checking runtime or the VM stopped the program *)
  | Limit  (** a resource ceiling (steps, heap bytes) was hit *)
  | Corruption  (** the heap-integrity sanitizer fired *)
  | Divergence  (** differential disagreement: a stress/differ finding *)
  | Heap_exhausted
      (** out of memory: the heap limit blocked a needed growth even
          after the configured recovery (emergency collection, retry) *)
  | Task_quarantined
      (** a supervised task exhausted its attempt cap and was isolated *)
  | Overload
      (** the service's bounded queue was full and admission control
          shed the request — a structured outcome, never a hang *)
  | Internal_error
      (** an exception no classifier owns leaked to the outcome
          boundary; the robustness identity counts this as a bug *)

val outcome_name : outcome -> string

val exit_code : outcome -> int

val of_exn : exn -> (outcome * string) option
(** Classify a harness exception and render its diagnostic message;
    [None] for exceptions the harness does not own. *)

val report : outcome -> string -> unit
(** Print the diagnostic to [stderr] in the CLI's format. *)

val handle : (unit -> 'a) -> 'a
(** Run a thunk; on a classified exception, {!report} it and [exit]
    with its code.  Unclassified exceptions propagate. *)
