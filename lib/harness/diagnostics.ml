(** Structured failure classification shared by every consumer: the
    exception -> (class, message) mapping that used to be hand-rolled in
    the CLI's [handle_errors], with one exit code per class. *)

type outcome =
  | Ok
  | Source_error
  | Fault
  | Limit
  | Corruption
  | Divergence
  | Heap_exhausted
  | Task_quarantined
  | Overload
  | Internal_error

let outcome_name = function
  | Ok -> "ok"
  | Source_error -> "source-error"
  | Fault -> "fault"
  | Limit -> "limit"
  | Corruption -> "corruption"
  | Divergence -> "divergence"
  | Heap_exhausted -> "heap-exhausted"
  | Task_quarantined -> "task-quarantined"
  | Overload -> "rejected-overload"
  | Internal_error -> "internal-error"

let exit_code = function
  | Ok -> 0
  | Divergence -> 1
  | Source_error -> 2
  | Fault -> 3
  | Limit -> 4
  | Corruption -> 5
  | Heap_exhausted -> 6
  | Task_quarantined -> 7
  | Overload -> 8
  | Internal_error -> 9

let of_exn = function
  | Csyntax.Lexer.Error (m, loc) ->
      Some
        ( Source_error,
          Printf.sprintf "lex error at %s: %s" (Csyntax.Loc.to_string loc) m )
  | Csyntax.Parser.Error (m, loc) ->
      Some
        ( Source_error,
          Printf.sprintf "parse error at %s: %s" (Csyntax.Loc.to_string loc) m
        )
  | Csyntax.Typecheck.Error (m, loc) ->
      Some
        ( Source_error,
          Printf.sprintf "type error at %s: %s" (Csyntax.Loc.to_string loc) m )
  | Gcsafe.Annotate.Unnormalized (m, loc) ->
      Some
        ( Source_error,
          Printf.sprintf "annotation error at %s: %s"
            (Csyntax.Loc.to_string loc) m )
  | Gcsafe.Normalize.Already_annotated loc ->
      Some
        ( Source_error,
          Printf.sprintf
            "annotation error at %s: KEEP_LIVE in the input: already \
             annotated source builds with -c base or -c debug"
            (Csyntax.Loc.to_string loc) )
  | Ir.Compile.Unsupported (m, loc) ->
      Some
        ( Source_error,
          Printf.sprintf "unsupported at %s: %s" (Csyntax.Loc.to_string loc) m
        )
  | Sys_error m -> Some (Source_error, Printf.sprintf "error: %s" m)
  | Machine.Vm.Fault m -> Some (Fault, Printf.sprintf "fault: %s" m)
  | Machine.Vm.Trap (k, m) ->
      Some (Limit, Printf.sprintf "%s: %s" (Machine.Vm.trap_kind_name k) m)
  | Gcheap.Heap.Heap_exhausted m -> Some (Heap_exhausted, m)
  | Exec.Pool.Crash m ->
      Some (Task_quarantined, Printf.sprintf "worker crash: %s" m)
  | Exec.Pool.Deadline_exceeded ->
      Some (Task_quarantined, "task deadline exceeded")
  | Gcheap.Heap.Heap_corruption vs ->
      Some
        ( Corruption,
          Printf.sprintf "heap corruption: %s"
            (String.concat "; "
               (List.map
                  (fun v -> Format.asprintf "%a" Gcheap.Heap.pp_violation v)
                  vs)) )
  | _ -> None

let report _outcome message = Printf.eprintf "%s\n" message

let handle f =
  try f ()
  with e -> (
    match of_exn e with
    | Some (outcome, message) ->
        report outcome message;
        exit (exit_code outcome)
    | None -> raise e)
