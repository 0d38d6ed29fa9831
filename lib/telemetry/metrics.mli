(** The metrics registry: counters, gauges and log-scale histograms.

    A registry is a named set of instruments.  Instruments are obtained
    once (registration allocates) and then updated on hot paths; every
    update on an instrument of a disabled registry is a no-op that
    allocates nothing, so instrumented code can keep its hooks threaded
    unconditionally.  Instruments are safe to update from several
    domains at once (counters and gauges are atomics; histogram buckets
    are atomics too).

    Observability flows through {!snapshot}: an immutable, sorted view
    of every instrument, which can be diffed against an earlier snapshot
    (interval metrics), rendered as JSON, or pretty-printed. *)

type t

val create : unit -> t
(** A fresh, enabled registry. *)

val disabled : t
(** The shared null registry: registration returns no-op instruments. *)

val is_enabled : t -> bool

val scope : t -> string -> t
(** [scope t name] is a view of [t] in which every instrument name is
    prefixed with ["name/"].  Scoping the null registry is free. *)

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
(** Monotone counter.  Registration is idempotent: the same name in the
    same registry returns the same instrument.  One atomic: concurrent
    updates from several domains are never lost. *)

val incr : counter -> unit

val add : counter -> int -> unit

type gauge

val gauge : t -> string -> gauge
(** Last-value instrument that also tracks the maximum ever set. *)

val set : gauge -> int -> unit

type histogram

val histogram : t -> string -> histogram
(** Log-scale (power-of-two bucket) histogram of non-negative integer
    observations: bucket [i] counts values [v] with [2^(i-1) <= v < 2^i]
    (bucket 0 counts zero). *)

val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of { last : int; max : int }
  | Histogram of { count : int; sum : int; max : int; buckets : int array }

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: the interval view.  Counters and histogram
    counts/sums subtract; gauges keep the later value.  Instruments
    absent from [earlier] appear as in [later]. *)

val merge : snapshot -> snapshot -> snapshot
(** [merge a b]: pointwise sum of two interval snapshots.  Counters and
    histogram counts/sums/buckets add, histogram maxima take the max,
    gauges keep [b]'s value (the later window).  Satisfies the window
    law: folding [merge] over consecutive {!diff} windows equals the
    whole-run diff. *)

val find : snapshot -> string -> value option

val absorb : t -> snapshot -> unit
(** Merge a snapshot (typically of a session-scoped registry) into [t]:
    counters and histogram counts/sums/buckets add; gauges take the
    snapshot's max then last.  Snapshot names are used verbatim — [t]'s
    scope prefix does not apply.  No-op on a disabled registry.  This is
    how per-request registries roll up into a server-wide one without
    sharing mutable instruments across sessions. *)

val to_json : snapshot -> Json.t

val pp : Format.formatter -> snapshot -> unit

val percentile : int array -> float -> int
(** [percentile buckets p] (0 <= p <= 1): an upper bound of the p-th
    percentile of a log-scale bucket array (the top edge of the bucket
    the nearest-rank order statistic falls in).  0 on an empty
    histogram; [p] outside [0, 1] (or NaN) clamps to the extreme order
    statistics, so [p = 1.0] is exactly the maximum bucket edge. *)
