(** Single-flight memo cache with counters and optional artifact
    fingerprinting.

    Slots are [Building] while a builder is in flight, so concurrent
    domains asking for the same key block on [settled] instead of
    duplicating work.  Builders run outside the lock: distinct keys build
    in parallel.

    When a fingerprint function is installed, every artifact's digest is
    recorded at insertion and re-verified on every hit; a mismatch (a
    corrupted artifact) is counted, the entry is dropped, and the request
    falls through to an ordinary single-flight rebuild — a rotten
    artifact is never served. *)

type 'v slot = Ready of 'v * string option | Building

type 'v t = {
  lock : Mutex.t;
  settled : Condition.t;  (** broadcast when a Building slot resolves *)
  table : (string, 'v slot) Hashtbl.t;
  fingerprint : ('v -> string) option;
  mutable hits : int;
  mutable misses : int;
  mutable corruptions : int;
}

type stats = {
  hits : int;
  misses : int;
  corruptions : int;
  entries : int;
}

let create ?fingerprint () =
  {
    lock = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create 64;
    fingerprint;
    hits = 0;
    misses = 0;
    corruptions = 0;
  }

(* Release a Building slot whose builder failed.  Centralized so the
   single-flight invariant — a Building slot always resolves, and every
   waiter is woken exactly when it does — is enforced in one place: the
   slot is removed (the key is free to rebuild) and [settled] is
   broadcast (no waiter can sleep through the failure; the builder must
   take the lock to settle, and waiters hold it from their slot check
   until they wait, so there is no wake-up to miss). *)
let release_failed t key =
  Mutex.lock t.lock;
  Hashtbl.remove t.table key;
  Condition.broadcast t.settled;
  Mutex.unlock t.lock

let rec find_or_build_outcome t key build =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some (Ready (v, fp)) -> (
      let corrupted =
        match (t.fingerprint, fp) with
        | Some f, Some expected -> not (String.equal (f v) expected)
        | _ -> false
      in
      if not corrupted then begin
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        (v, true)
      end
      else begin
        (* the artifact rotted under us: count it, drop it, and fall
           through to an ordinary single-flight rebuild *)
        t.corruptions <- t.corruptions + 1;
        Hashtbl.remove t.table key;
        Mutex.unlock t.lock;
        find_or_build_outcome t key build
      end)
  | Some Building ->
      (* The in-flight builder broadcasts on resolution (or on failure,
         after releasing the slot — then one waiter retries as builder). *)
      Condition.wait t.settled t.lock;
      Mutex.unlock t.lock;
      find_or_build_outcome t key build
  | None ->
      Hashtbl.replace t.table key Building;
      Mutex.unlock t.lock;
      (* the Building slot must resolve no matter how [build] exits *)
      let v =
        try build ()
        with e ->
          release_failed t key;
          raise e
      in
      let fp = Option.map (fun f -> f v) t.fingerprint in
      Mutex.lock t.lock;
      (* a miss is counted when the build settles, not at lookup: a
         failed build populates nothing, and every accounting layer
         above (the registry's [build/cache/misses], session deltas)
         counts settled builds — keeping the cache's own counter on the
         same basis makes the layers agree by construction *)
      t.misses <- t.misses + 1;
      Hashtbl.replace t.table key (Ready (v, fp));
      Condition.broadcast t.settled;
      Mutex.unlock t.lock;
      (v, false)

let find_or_build t key build = fst (find_or_build_outcome t key build)

let mem t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some (Ready _) -> true
    | Some Building | None -> false
  in
  Mutex.unlock t.lock;
  r

(** Chaos hook: overwrite the finished artifact under [key] with
    [mutate v] {e without} refreshing its recorded fingerprint, exactly
    what an artifact rotting at rest looks like.  Returns whether an
    artifact was there to corrupt. *)
let corrupt t key mutate =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some (Ready (v, fp)) ->
        Hashtbl.replace t.table key (Ready (mutate v, fp));
        true
    | Some Building | None -> false
  in
  Mutex.unlock t.lock;
  r

let clear t =
  Mutex.lock t.lock;
  Hashtbl.filter_map_inplace
    (fun _ slot -> match slot with Ready _ -> None | Building -> Some slot)
    t.table;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold
      (fun _ slot n -> match slot with Ready _ -> n + 1 | Building -> n)
      t.table 0
  in
  let s =
    { hits = t.hits; misses = t.misses; corruptions = t.corruptions; entries }
  in
  Mutex.unlock t.lock;
  s

let reset_stats t =
  Mutex.lock t.lock;
  t.hits <- 0;
  t.misses <- 0;
  t.corruptions <- 0;
  Mutex.unlock t.lock
