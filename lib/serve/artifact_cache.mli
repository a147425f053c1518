(** Content-addressed LRU cache for expensive pure artifacts.

    The serve daemon's amortization layer: compiled kernels, code
    constructions, ν matrices, whole design reports and Monte-Carlo
    estimates are all pure functions of their canonical parameter keys
    ({!Nanodec_crossbar.Cave.config_key} and friends), so a cache entry
    is observationally identical to rebuilding — the hard invariant the
    [cache_hit ≡ cache_miss] oracle enforces bit-for-bit.

    Keys are the canonical parameter strings themselves, never a lossy
    hash: injectivity of the keying functions (the second oracle) is
    what makes a hit provably safe, and an MD5 of the key is kept only
    as a display handle ({!digest}).

    O(1) lookup and insertion (hash table + intrusive doubly-linked
    recency list), least-recently-{e used} eviction, and per-entry
    build-cost accounting: every entry remembers what it cost to build,
    {!stats} reports both the seconds spent building misses and the
    seconds hits would otherwise have re-spent ([saved_s]) — the
    daemon's amortization telemetry.  All operations take one mutex;
    the structure is safe to share across threads and domains. *)

type 'v t

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  build_s : float;  (** total seconds spent building entries (misses) *)
  saved_s : float;
      (** sum over hits of the entry's recorded build cost — the time
          the cache has saved so far *)
}

val create : ?enabled:bool -> capacity:int -> unit -> 'v t
(** [capacity] is the maximum entry count; at least 1 (a capacity-1
    cache is the eviction-heavy degenerate case the oracles exercise).
    [enabled = false] builds a pass-through cache: {!find_or_build}
    always builds, stores nothing, and counts every call as a miss —
    the cold path with identical accounting, used by the
    [cache_hit ≡ cache_miss] oracle and [serve --no-cache].
    Raises [Invalid_argument] when [capacity < 1]. *)

val find_or_build : 'v t -> key:string -> (unit -> 'v) -> 'v * bool
(** [find_or_build t ~key build] returns the cached value for [key]
    (marking it most recently used) or runs [build], stores the result
    with its measured build time, evicts the least recently used entry
    if over capacity, and returns it.  The boolean is [true] on a hit.

    Single-flight: the mutex is {e not} held while [build] runs, and
    callers that miss [key] while its build is in flight wait for that
    build instead of starting their own.  Each waiter receives the
    built value and counts as a hit, exactly as it would had it arrived
    after the build — so concurrent duplicates cost one build.  If
    [build] raises, the building caller and every waiter get the same
    exception (waiters count as misses), nothing is stored, and the
    next call builds afresh: a failure never poisons the key.  A
    disabled cache has no flights; it builds on every call.

    The one exception is a deadline: when [build] raises
    [Nanodec_error.Error (Timeout _)], that is the building caller's
    deadline, not the waiters'.  Only the builder gets the timeout; each
    waiter looks [key] up again — a hit if another build has landed
    meanwhile, a wait on a newer flight, or a build of its own — so a
    caller without a deadline never receives another caller's timeout.
    Conversely a caller's own deadline bounds only the work its own
    [build] does: a waiter blocks on someone else's flight for as long
    as that build takes, and the value it then receives is the same
    bytes it would have built.

    Waiting cannot deadlock as long as builds only request keys
    strictly below their own in a fixed order.  The daemon's builds
    nest downward — estimate → kernel → analysis → ν, and report and
    sweep build their design layers without the cache — so no build
    ever waits, directly or transitively, on itself.  A build must
    never request its own key. *)

val mem : 'v t -> string -> bool
(** Pure membership probe: no counter moves, no recency refresh. *)

val length : 'v t -> int

val keys : 'v t -> string list
(** Most recently used first — the eviction order reversed.  For tests
    and offline diagnostics; the [stats] verb reports counts only. *)

val stats : 'v t -> stats

val dump : 'v t -> (string * float * 'v) list
(** Every entry as [(key, build-cost seconds, value)], least recently
    used first, so replaying the list through {!restore} in order
    reproduces the recency chain exactly.  The snapshot writer's view
    of the cache; counters are not included (a restarted daemon starts
    its accounting fresh). *)

val restore : 'v t -> (string * float * 'v) list -> unit
(** Insert entries verbatim (preserving their recorded build costs)
    without touching the hit/miss/build counters — warming a cache from
    a snapshot is not a workload.  Entries are inserted in list order,
    each becoming most recently used in turn; over-capacity inserts
    evict as usual, so restoring a dump into a smaller cache keeps the
    most recently used tail.  No-op on a disabled cache. *)

val digest : string -> string
(** MD5 hex of a key — a short display handle for logs and
    diagnostics; never used for addressing. *)

val clear : 'v t -> unit
(** Drop every entry (counters keep their totals; [evictions] does not
    count cleared entries). *)
