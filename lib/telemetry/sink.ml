type t = {
  metrics : Metrics.t;
  trace : Trace.t option;
  profiler : Heap_profiler.t option;
  recorder : Flight_recorder.t option;
}

type args = (string * Json.t) list

let none : t option = None

let make ?metrics ?trace ?profiler ?recorder () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { metrics; trace; profiler; recorder }

let metrics = function Some s -> s.metrics | None -> Metrics.disabled

let no_args () = []

let span sink ?ts ?(args = no_args) ?(end_args = no_args) name f =
  match sink with
  | Some { trace; recorder; _ }
    when Option.is_some trace || (Option.is_some recorder && Option.is_some ts)
    ->
      let a = args () in
      (* an event reaches the recorder only with a producer-clock [ts] *)
      let record suffix args =
        match (recorder, ts) with
        | Some fr, Some ts ->
            ignore (Flight_recorder.record fr ~ts (name ^ suffix) (args ()))
        | _ -> ()
      in
      Option.iter (fun tr -> Trace.begin_span tr ~args:a name) trace;
      record ".begin" (fun () -> a);
      Fun.protect f ~finally:(fun () ->
          Option.iter (fun tr -> Trace.end_span tr name) trace;
          record ".end" (fun () -> a @ end_args ()))
  | _ -> f ()

let instant sink ~ts ?(args = no_args) name =
  match sink with
  | Some { trace = None; recorder = None; _ } | None -> ()
  | Some { trace; recorder; _ } ->
      let a = args () in
      Option.iter (fun tr -> Trace.instant tr ~args:a name) trace;
      Option.iter
        (fun fr -> ignore (Flight_recorder.record fr ~ts name a))
        recorder
