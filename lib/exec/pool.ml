(** Domain-based worker pool over a bounded work queue.

    The queue holds closures; {!map} fans a task list out over the
    workers and reassembles results by input index, so callers see
    deterministic ordering no matter how the domains interleave.  The
    queue bound keeps a huge schedule space from materializing thousands
    of closures at once: submission blocks until a worker frees a slot. *)

type task = Run of (unit -> unit) | Stop

type t = {
  p_jobs : int;
  queue : task Queue.t;
  capacity : int;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

let jobs t = t.p_jobs

let push t task =
  Mutex.lock t.lock;
  while Queue.length t.queue >= t.capacity do
    Condition.wait t.not_full t.lock
  done;
  Queue.push task t.queue;
  Condition.signal t.not_empty;
  Mutex.unlock t.lock

let pop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue do
    Condition.wait t.not_empty t.lock
  done;
  let task = Queue.pop t.queue in
  Condition.signal t.not_full;
  Mutex.unlock t.lock;
  task

let rec worker t =
  match pop t with
  | Stop -> ()
  | Run f ->
      f ();
      worker t

let create ?jobs () =
  let p_jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> recommended_jobs ()
  in
  let t =
    {
      p_jobs;
      queue = Queue.create ();
      capacity = max 4 (2 * p_jobs);
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      stopping = false;
      domains = [];
    }
  in
  if p_jobs > 1 then
    t.domains <-
      List.init (p_jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              Telemetry.Trace.register_lane (Printf.sprintf "worker-%d" (i + 1));
              worker t));
  t

let serial = create ~jobs:1 ()

let shutdown t =
  let ds =
    Mutex.lock t.lock;
    let ds = t.domains in
    t.domains <- [];
    t.stopping <- true;
    Mutex.unlock t.lock;
    ds
  in
  List.iter (fun _ -> push t Stop) ds;
  List.iter Domain.join ds

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** One task's settled state. *)
type 'b settled = Value of 'b | Raised of exn

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.p_jobs <= 1 -> List.map f xs
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      let remaining = ref n in
      let done_lock = Mutex.create () in
      let all_done = Condition.create () in
      let task i x () =
        let r = try Value (f x) with e -> Raised e in
        Mutex.lock done_lock;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock done_lock
      in
      (* The submitter helps at the queue's tail once everything is
         enqueued, so a pool is never idle while it still has work. *)
      Array.iteri (fun i x -> push t (Run (task i x))) arr;
      let rec help () =
        let task =
          Mutex.lock t.lock;
          let task =
            if Queue.is_empty t.queue then None
            else
              match Queue.peek t.queue with
              | Stop -> None
              | Run _ -> (
                  match Queue.pop t.queue with
                  | Run f ->
                      Condition.signal t.not_full;
                      Some f
                  | Stop -> assert false)
          in
          Mutex.unlock t.lock;
          task
        in
        match task with
        | Some f ->
            f ();
            help ()
        | None -> ()
      in
      help ();
      Mutex.lock done_lock;
      while !remaining > 0 do
        Condition.wait all_done done_lock
      done;
      Mutex.unlock done_lock;
      let first_exn = ref None in
      Array.iter
        (function
          | Some (Raised e) when !first_exn = None -> first_exn := Some e
          | _ -> ())
        results;
      (match !first_exn with Some e -> raise e | None -> ());
      Array.to_list
        (Array.map
           (function Some (Value v) -> v | Some (Raised _) | None -> assert false)
           results)

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

exception Crash of string

exception Transient of string

exception Deadline_exceeded

type policy = {
  max_attempts : int;
  backoff_base : int;
  deadline : int option;
  seed : int;
}

let default_policy =
  { max_attempts = 3; backoff_base = 16; deadline = None; seed = 0 }

(* Exponential backoff with deterministic jitter: a pure function of
   (seed, attempt), so a replay with the same seed schedules the same
   waits.  Ticks, not wall time — supervision stays deterministic. *)
let backoff_ticks ~seed ~attempt ~base =
  let base = max base 1 in
  let jitter = Hashtbl.hash (seed, attempt) mod base in
  (base * (1 lsl min (max (attempt - 1) 0) 16)) + jitter

type ctx = { tick : unit -> unit; attempt : int }

type 'b outcome =
  | Done of { value : 'b; attempts : int }
  | Quarantined of { reason : string; attempts : int }

type sup_stats = {
  sup_retries : int;
  sup_restarts : int;
  sup_backoff_ticks : int;
  sup_quarantined : int;
}

let outcome_value = function
  | Done { value; _ } -> Some value
  | Quarantined _ -> None

(* Shared mutable counters for one map_supervised run.  The serial and
   parallel paths drive the same per-task decision tree, so outcomes
   and counters are identical regardless of the worker count. *)
type sup_state = {
  sup_policy : policy;
  sup_lock : Mutex.t;
  mutable st_retries : int;
  mutable st_restarts : int;
  mutable st_backoff : int;
  mutable st_quarantined : int;
}

let sup_ctx policy k =
  let ticks = ref 0 in
  {
    attempt = k;
    tick =
      (fun () ->
        incr ticks;
        match policy.deadline with
        | Some d when !ticks > d -> raise Deadline_exceeded
        | _ -> ());
  }

(* One attempt of task [idx].  The three fault classes:
   - [Transient]: retried in place (with deterministic backoff) by the
     same worker;
   - [Crash] / [Deadline_exceeded]: the worker is considered dead —
     [`Died] tells the caller to replace it and re-enqueue the task;
   - anything else: quarantined immediately, so a poisoned task never
     wedges the queue. *)
let run_attempt (s : sup_state) f x idx k settle =
  let p = s.sup_policy in
  let rec go k =
    match f (sup_ctx p k) x with
    | v ->
        settle idx (Done { value = v; attempts = k });
        `Ok
    | exception Transient msg ->
        if k >= p.max_attempts then begin
          settle idx (Quarantined { reason = "transient: " ^ msg; attempts = k });
          `Ok
        end
        else begin
          Mutex.lock s.sup_lock;
          s.st_retries <- s.st_retries + 1;
          s.st_backoff <-
            s.st_backoff
            + backoff_ticks ~seed:(p.seed + idx) ~attempt:k ~base:p.backoff_base;
          Mutex.unlock s.sup_lock;
          go (k + 1)
        end
    | exception Crash msg -> `Died (idx, k, "crash: " ^ msg)
    | exception Deadline_exceeded -> `Died (idx, k, "deadline exceeded")
    | exception e ->
        settle idx (Quarantined { reason = Printexc.to_string e; attempts = k });
        `Ok
  in
  go k

(* What the supervisor does with a death notice: count the restart and
   either re-enqueue the task (attempts left) or quarantine it.
   Returns the re-enqueued attempt number, if any. *)
let handle_incident (s : sup_state) settle (idx, k, reason) =
  let p = s.sup_policy in
  Mutex.lock s.sup_lock;
  s.st_restarts <- s.st_restarts + 1;
  let requeue = k < p.max_attempts in
  if requeue then s.st_retries <- s.st_retries + 1;
  Mutex.unlock s.sup_lock;
  if requeue then Some (idx, k + 1)
  else begin
    settle idx (Quarantined { reason; attempts = k });
    None
  end

let supervised_run t policy f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let s =
    {
      sup_policy = policy;
      sup_lock = Mutex.create ();
      st_retries = 0;
      st_restarts = 0;
      st_backoff = 0;
      st_quarantined = 0;
    }
  in
  let results = Array.make n None in
  let stats () =
    {
      sup_retries = s.st_retries;
      sup_restarts = s.st_restarts;
      sup_backoff_ticks = s.st_backoff;
      sup_quarantined = s.st_quarantined;
    }
  in
  let finish () =
    ( Array.to_list
        (Array.map
           (function Some o -> o | None -> assert false)
           results),
      stats () )
  in
  if n = 0 then ([], stats ())
  else if t.p_jobs <= 1 || n = 1 then begin
    (* serial reference path: the "worker" is the caller; a death
       notice is handled inline, so outcomes and counters match the
       parallel path exactly *)
    let settle idx o =
      (match o with
      | Quarantined _ -> s.st_quarantined <- s.st_quarantined + 1
      | Done _ -> ());
      results.(idx) <- Some o
    in
    Array.iteri
      (fun idx x ->
        let rec drive k =
          match run_attempt s f x idx k settle with
          | `Ok -> ()
          | `Died incident -> (
              match handle_incident s settle incident with
              | Some (_, k') -> drive k'
              | None -> ())
        in
        drive 1)
      arr;
    finish ()
  end
  else begin
    (* Dedicated worker domains with a real supervisor: a crashed or
       deadline-blown worker domain exits and is replaced by a fresh
       spawn; its task is re-enqueued up to the attempt cap.  Domains
       are per-call (supervision is the chaos path, not the hot path),
       so a dying worker cannot poison the shared pool queue. *)
    let lock = Mutex.create () in
    let cond = Condition.create () in
    let queue = Queue.create () in
    let incidents = Queue.create () in
    let remaining = ref n in
    let settle_locked idx o =
      (match o with
      | Quarantined _ -> s.st_quarantined <- s.st_quarantined + 1
      | Done _ -> ());
      results.(idx) <- Some o;
      decr remaining;
      Condition.broadcast cond
    in
    let settle idx o =
      Mutex.lock lock;
      settle_locked idx o;
      Mutex.unlock lock
    in
    Array.iteri (fun idx _ -> Queue.push (idx, 1) queue) arr;
    let rec worker () =
      let job =
        Mutex.lock lock;
        while Queue.is_empty queue && !remaining > 0 do
          Condition.wait cond lock
        done;
        let job =
          if Queue.is_empty queue then None else Some (Queue.pop queue)
        in
        Mutex.unlock lock;
        job
      in
      match job with
      | None -> ()
      | Some (idx, k) -> (
          match run_attempt s f arr.(idx) idx k settle with
          | `Ok -> worker ()
          | `Died incident ->
              (* register the death and exit the domain cleanly: the
                 supervisor joins the corpse and spawns a replacement *)
              Mutex.lock lock;
              Queue.push incident incidents;
              Condition.broadcast cond;
              Mutex.unlock lock)
    in
    let workers = max 1 (min (t.p_jobs - 1) n) in
    let doms = ref (List.init workers (fun _ -> Domain.spawn worker)) in
    let rec supervise () =
      Mutex.lock lock;
      while Queue.is_empty incidents && !remaining > 0 do
        Condition.wait cond lock
      done;
      if Queue.is_empty incidents then Mutex.unlock lock
      else begin
        let incident = Queue.pop incidents in
        (match handle_incident s settle_locked incident with
        | Some job -> Queue.push job queue
        | None -> ());
        Condition.broadcast cond;
        Mutex.unlock lock;
        (* replace the dead worker *)
        doms := Domain.spawn worker :: !doms;
        supervise ()
      end
    in
    supervise ();
    List.iter Domain.join !doms;
    finish ()
  end

(* Supervision observability: anomalies (retries past the first attempt,
   quarantines) are recorded after every outcome settles, from the
   submitting thread in input order with the input index as the
   timestamp, so dump contents are identical on the serial and parallel
   paths. *)
let map_supervised t ?(policy = default_policy) ?recorder f xs =
  let outcomes, stats = supervised_run t policy f xs in
  (match recorder with
  | None -> ()
  | Some r ->
      List.iteri
        (fun idx o ->
          match o with
          | Done { attempts; _ } when attempts > 1 ->
              ignore
                (Telemetry.Flight_recorder.record r ~ts:idx "pool.retry"
                   [
                     ("index", Telemetry.Json.Int idx);
                     ("attempts", Telemetry.Json.Int attempts);
                   ])
          | Quarantined { reason; attempts } ->
              ignore
                (Telemetry.Flight_recorder.record r ~ts:idx "pool.quarantine"
                   [
                     ("index", Telemetry.Json.Int idx);
                     ("attempts", Telemetry.Json.Int attempts);
                     ("reason", Telemetry.Json.Str reason);
                   ])
          | Done _ -> ())
        outcomes);
  (outcomes, stats)
