(** Lowering from the type-annotated AST to the three-address IR.

    Two compile modes mirror the paper's builds: [opt_mode] keeps scalar
    locals in virtual registers; [debug_mode] homes every local in its
    stack slot (fully debuggable code — GC-safe by construction).  Both
    fold address arithmetic into load/store address modes at selection
    time.  KEEP_LIVE lowers to the [KeepLive]/[Opaque] pair; [Opaque]
    results block address folding, exactly where the paper says they
    must. *)

exception Unsupported of string * Csyntax.Loc.t
(** A construct outside the executable subset (floating point, struct
    parameters, non-constant global initializers, ...). *)

type mode = { cm_locals_in_memory : bool }

val opt_mode : mode

val debug_mode : mode

val compile_program : ?mode:mode -> Csyntax.Ast.program -> Instr.program
(** Lay out globals and string literals in the statics image and compile
    every function.  @raise Unsupported on out-of-subset constructs. *)
