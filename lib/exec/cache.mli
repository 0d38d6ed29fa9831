(** A content-addressed, single-flight artifact cache.

    Keys are opaque strings (callers address artifacts by content, e.g. a
    source digest plus every build input that affects the result); values
    are whatever artifact the builder produces.  The cache memoizes
    across a whole process and is safe to use from several domains at
    once: concurrent requests for the same key run the builder exactly
    once, and every requester gets the physically-equal artifact.

    Hit/miss/corruption counters are maintained for observability — the
    bench prints them, and the harness asserts hit rates on them.
    Artifacts stay resident until {!clear}: the cache never evicts. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
      (** builder invocations that settled an artifact — a failed build
          counts nothing, so this agrees with accounting layers above
          that count settled builds (e.g. the registry's
          [build/cache/misses]) *)
  corruptions : int;  (** fingerprint mismatches detected on hit *)
  entries : int;  (** artifacts currently resident *)
}

val create : ?fingerprint:('v -> string) -> unit -> 'v t
(** [fingerprint] enables artifact verification: the digest is recorded
    when an artifact is inserted and re-checked on every hit.  A
    mismatch counts as a corruption, drops the entry, and the request
    degrades to an ordinary single-flight rebuild — a corrupted
    artifact is never served.  The function must be pure and cheap (it
    runs under the cache lock). *)

val find_or_build : 'v t -> string -> (unit -> 'v) -> 'v
(** [find_or_build t key build] returns the cached artifact for [key],
    running [build] (outside the cache lock) on a miss.  A concurrent
    request for a key that is being built waits for the in-flight build
    and counts as a hit.  If [build] raises, the slot is released, every
    waiter fails over to building, and the exception propagates. *)

val find_or_build_outcome : 'v t -> string -> (unit -> 'v) -> 'v * bool
(** Like {!find_or_build}, but also tells the caller how the lookup
    settled: [true] for a hit (including waiting out an in-flight
    build), [false] when this call ran the builder.  This is what lets
    callers maintain their own per-session counters on top of the
    cache's process-wide ones. *)

val mem : 'v t -> string -> bool
(** The key holds a finished artifact (does not touch the counters). *)

val corrupt : 'v t -> string -> ('v -> 'v) -> bool
(** Chaos hook: replace the finished artifact under the key with the
    mutated value {e without} refreshing its recorded fingerprint —
    what an artifact rotting at rest looks like.  Returns [false] when
    the key holds no finished artifact.  Only observable when the cache
    has a [fingerprint] function (otherwise the mutated value is served
    as-is, exactly like the unverified cache it is). *)

val clear : 'v t -> unit
(** Drop all finished artifacts (counters are kept). *)

val stats : 'v t -> stats

val reset_stats : 'v t -> unit
