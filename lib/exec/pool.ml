(** Domain-based worker pool with one work-claiming engine.

    A call publishes a job: a size, an atomic next-index counter and a
    pending count.  The submitting thread and every woken worker claim
    indices until none are left, and the submitter then waits for the
    last claimed index to settle.  Each index settles into its own slot,
    so callers see input order no matter how the domains interleave. *)

(* [settle i] runs index [i] and stores its result; it never raises. *)
type job = {
  size : int;
  next : int Atomic.t;
  pending : int Atomic.t;
  settle : int -> unit;
}

type t = {
  p_jobs : int;
  calls : Mutex.t;  (** serialises whole calls from different domains *)
  lock : Mutex.t;
  wake : Condition.t;  (** a job was published, or the pool is stopping *)
  settled : Condition.t;  (** the published job's last index settled *)
  mutable job : job option;
  mutable generation : int;  (** bumped on every publication *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

let jobs t = t.p_jobs

let claim t j =
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.size then begin
      j.settle i;
      if Atomic.fetch_and_add j.pending (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.signal t.settled;
        Mutex.unlock t.lock
      end;
      go ()
    end
  in
  go ()

(* Sleep until a publication newer than [seen], help with that job, and
   sleep again. *)
let rec worker t seen =
  Mutex.lock t.lock;
  while t.generation = seen && not t.stopping do
    Condition.wait t.wake t.lock
  done;
  let stopping = t.stopping and seen = t.generation and j = t.job in
  Mutex.unlock t.lock;
  if not stopping then begin
    Option.iter (claim t) j;
    worker t seen
  end

let create ?jobs () =
  let p_jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> recommended_jobs ()
  in
  let t =
    {
      p_jobs;
      calls = Mutex.create ();
      lock = Mutex.create ();
      wake = Condition.create ();
      settled = Condition.create ();
      job = None;
      generation = 0;
      stopping = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (p_jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Telemetry.Trace.register_lane (Printf.sprintf "worker-%d" (i + 1));
            worker t 0));
  t

let serial = create ~jobs:1 ()

let shutdown t =
  Mutex.lock t.lock;
  let ds = t.domains in
  t.domains <- [];
  t.stopping <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  List.iter Domain.join ds

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Settle every index below [n].  With workers and more than one index
   the job is published and the workers claim alongside the caller;
   otherwise the caller claims them all, in index order. *)
let run t n settle =
  let j = { size = n; next = Atomic.make 0; pending = Atomic.make n; settle } in
  if n <= 1 || t.domains = [] then claim t j
  else begin
    Mutex.lock t.calls;
    Mutex.lock t.lock;
    t.job <- Some j;
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    claim t j;
    Mutex.lock t.lock;
    while Atomic.get j.pending > 0 do
      Condition.wait t.settled t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    Mutex.unlock t.calls
  end

(** One task's settled state. *)
type 'b settled = Value of 'b | Raised of exn * Printexc.raw_backtrace

let map t f xs =
  let arr = Array.of_list xs in
  let results = Array.make (Array.length arr) None in
  run t (Array.length arr) (fun i ->
      results.(i) <-
        Some
          (match f arr.(i) with
          | v -> Value v
          | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
  (* [Array.map] walks in index order, so the smallest index's
     exception is the one re-raised *)
  Array.to_list
    (Array.map
       (function
         | Some (Value v) -> v
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
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

(* Every index runs the same decision tree on whichever domain claims
   it, and the counters are sums, so outcomes and counters are the same
   at every pool width.  Anomalies (retries past the first attempt,
   quarantines) are recorded after every outcome settles, from the
   submitting thread in input order with the input index as the
   timestamp, so dump contents are the same at every width too. *)
let map_supervised t ?(policy = default_policy) ?recorder f xs =
  let p = policy in
  let retries = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let backoff = Atomic.make 0 in
  (* Task [idx] from attempt [k]:
     - [Transient]: retried in place after a deterministic backoff;
     - [Crash] / [Deadline_exceeded]: the attempt died; the task is
       re-driven, or quarantined at the attempt cap;
     - anything else: quarantined at once, so a poisoned task never
       wedges the pool. *)
  let rec attempt x idx k =
    match f (sup_ctx p k) x with
    | value -> Done { value; attempts = k }
    | exception Transient msg ->
        if k >= p.max_attempts then
          Quarantined { reason = "transient: " ^ msg; attempts = k }
        else begin
          Atomic.incr retries;
          ignore
            (Atomic.fetch_and_add backoff
               (backoff_ticks ~seed:(p.seed + idx) ~attempt:k
                  ~base:p.backoff_base));
          attempt x idx (k + 1)
        end
    | exception Crash msg -> died x idx k ("crash: " ^ msg)
    | exception Deadline_exceeded -> died x idx k "deadline exceeded"
    | exception e -> Quarantined { reason = Printexc.to_string e; attempts = k }
  and died x idx k reason =
    Atomic.incr restarts;
    if k < p.max_attempts then begin
      Atomic.incr retries;
      attempt x idx (k + 1)
    end
    else Quarantined { reason; attempts = k }
  in
  let outcomes =
    map t (fun (idx, x) -> attempt x idx 1) (List.mapi (fun i x -> (i, x)) xs)
  in
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
  ( outcomes,
    {
      sup_retries = Atomic.get retries;
      sup_restarts = Atomic.get restarts;
      sup_backoff_ticks = Atomic.get backoff;
      sup_quarantined =
        List.length
          (List.filter
             (function Quarantined _ -> true | Done _ -> false)
             outcomes);
    } )
