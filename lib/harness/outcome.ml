(** Structured request outcomes.  See the interface for the contract. *)

type t =
  | Ran of Measure.run_info
  | Detected of string
  | Corrupted of string
  | Limit of string
  | Exhausted of string
  | Source_error of string
  | Rejected of string
  | Quarantined of string
  | Internal of string

let of_measure = function
  | Measure.Ran r -> Ran r
  | Measure.Detected m -> Detected m
  | Measure.Corrupted m -> Corrupted m
  | Measure.Limit m -> Limit m
  | Measure.Exhausted m -> Exhausted m

let classify = function
  | Ran _ -> Diagnostics.Ok
  | Detected _ -> Diagnostics.Fault
  | Corrupted _ -> Diagnostics.Corruption
  | Limit _ -> Diagnostics.Limit
  | Exhausted _ -> Diagnostics.Heap_exhausted
  | Source_error _ -> Diagnostics.Source_error
  | Rejected _ -> Diagnostics.Overload
  | Quarantined _ -> Diagnostics.Task_quarantined
  | Internal _ -> Diagnostics.Internal_error

let class_name o = Diagnostics.outcome_name (classify o)

(* exit-code order; Divergence is a relational verdict, not a request
   outcome, so it is absent *)
let all_class_names =
  List.map Diagnostics.outcome_name
    [
      Diagnostics.Ok;
      Diagnostics.Source_error;
      Diagnostics.Fault;
      Diagnostics.Limit;
      Diagnostics.Corruption;
      Diagnostics.Heap_exhausted;
      Diagnostics.Task_quarantined;
      Diagnostics.Overload;
      Diagnostics.Internal_error;
    ]

let describe = function
  | Ran r -> Measure.describe (Measure.Ran r)
  | Detected m -> Measure.describe (Measure.Detected m)
  | Corrupted m -> Measure.describe (Measure.Corrupted m)
  | Limit m -> Measure.describe (Measure.Limit m)
  | Exhausted m -> Measure.describe (Measure.Exhausted m)
  | Source_error m -> "source error: " ^ m
  | Rejected m -> "rejected (overload): " ^ m
  | Quarantined m -> "quarantined: " ^ m
  | Internal m -> "internal error: " ^ m

module Json = Telemetry.Json

let to_json o =
  let base = [ ("outcome", Json.Str (class_name o)) ] in
  match o with
  | Ran r ->
      Json.Obj
        (base
        @ [
            ("exit", Json.Int r.Measure.o_exit);
            ("cycles", Json.Int r.Measure.o_cycles);
            ("instrs", Json.Int r.Measure.o_instrs);
            ("collections", Json.Int r.Measure.o_gc_count);
            ("emergency", Json.Int r.Measure.o_emergency);
            ("injected_failures", Json.Int r.Measure.o_injected_failures);
            ("output_bytes", Json.Int (String.length r.Measure.o_output));
          ])
  | Detected m | Corrupted m | Limit m | Exhausted m | Source_error m
  | Rejected m | Quarantined m | Internal m ->
      Json.Obj (base @ [ ("detail", Json.Str m) ])

let execute ?gc_point_sink ?telemetry (r : Request.t) : t =
  match
    let b =
      Build.compile ?telemetry ~options:(Request.build_options r) r.Request.config
        r.Request.source
    in
    Measure.exec ?gc_point_sink ?telemetry r b
  with
  | o -> of_measure o
  | exception e -> (
      match Diagnostics.of_exn e with
      | Some (Diagnostics.Source_error, m) -> Source_error m
      | Some (Diagnostics.Fault, m) -> Detected m
      | Some (Diagnostics.Limit, m) -> Limit m
      | Some (Diagnostics.Heap_exhausted, m) -> Exhausted m
      | Some (Diagnostics.Corruption, m) -> Corrupted m
      | Some (Diagnostics.Task_quarantined, m) -> Quarantined m
      | Some
          ( ( Diagnostics.Ok | Diagnostics.Divergence | Diagnostics.Overload
            | Diagnostics.Internal_error ),
            m ) ->
          Internal m
      | None -> Internal (Printexc.to_string e))
