(** Content-addressed cache for expensive pure artifacts, evicting by
    rebuild cost and reuse.

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

    Every entry remembers what it cost to build, and that cost drives
    replacement: GreedyDual-Size-Frequency (Cherkasova 1998).  An
    entry's priority is [L + hits * max cost_s 100µs], recomputed when
    it is touched, where [hits] counts its uses since insertion (the
    insertion included) and [L] is the priority of the last entry
    evicted.  The victim is the lowest priority, the least recently
    touched on a tie.  So a Monte-Carlo estimate that took milliseconds
    to build outlives many one-use closed-form fragments, a cheap entry
    hit often outlives expensive one-use ones, and since [L] only rises,
    an entry that stops being hit ages out however costly it was.
    Costs under the 100 µs floor are timing noise and count as the
    floor, so entries of equal cost and one use each are evicted least
    recently used first.

    Hash-table lookup, O(log n) insertion, refresh and eviction (one
    balanced tree ordered by (priority, touch)).  {!stats} reports the
    seconds spent building misses, the seconds hits would otherwise
    have re-spent ([saved_s]) and the build seconds eviction threw away
    ([evicted_cost_s]) — the daemon's amortization telemetry.  All
    operations take one mutex; the structure is safe to share across
    threads and domains. *)

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
  evicted_cost_s : float;
      (** sum over evictions of the victim's recorded build cost — the
          rebuild work replacement has thrown away *)
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
    (counting a use and raising its priority) or runs [build], stores
    the result with its measured build time, having first evicted the
    lowest-priority entry if the cache is full, and returns it.  The boolean is
    [true] on a hit.

    Single-flight: the mutex is {e not} held while [build] runs, and
    callers that miss [key] while its build is in flight wait for that
    build instead of starting their own.  Each waiter receives the
    built value and counts as a hit, on the entry too, exactly as it
    would had it arrived after the build — so concurrent duplicates
    cost one build.  If
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

exception Not_cached
(** Raised by {!find_or_build} on a {!hits_only} handle instead of
    building or waiting. *)

val hits_only : 'v t -> 'v t
(** A hits-only handle on the same entries: its {!find_or_build}
    returns a cached value with [true], and raises {!Not_cached} when
    [key] is absent — also while its build is in flight, and always on
    a disabled cache — instead of building or waiting.  A lookup
    through it leaves no trace: it counts no hit or miss and raises no
    priority until {!commit}, so an attempt abandoned on {!Not_cached}
    changes nothing.  This is how the daemon answers a request on its
    select loop when everything it needs is cached, and hands it to a
    worker otherwise.  Every other function acts on the shared cache
    as on the handle it came from. *)

val commit : 'v t -> unit
(** Count the hits a {!hits_only} handle has found since its last
    commit, in lookup order, exactly as {!find_or_build} on the cache
    would have counted them; an entry evicted or replaced since it was
    found counts as a hit but keeps no rank, as for a single-flight
    waiter.  A no-op on the cache itself. *)

val mem : 'v t -> string -> bool
(** Pure membership probe: no counter moves, no priority changes. *)

val length : 'v t -> int

val keys : 'v t -> string list
(** The eviction order reversed: the entry evicted last comes first.
    For tests and offline diagnostics; the [stats] verb reports counts
    only. *)

val stats : 'v t -> stats

val dump : 'v t -> (string * float * 'v) list
(** Every entry as [(key, build-cost seconds, value)] in eviction
    order, the next victim first.  The snapshot writer's view of the
    cache; counters, use counts and [L] are not included (a restarted
    daemon starts its accounting fresh). *)

val restore : 'v t -> (string * float * 'v) list -> unit
(** Insert entries verbatim (preserving their recorded build costs)
    without touching the hit/miss/build counters — warming a cache from
    a snapshot is not a workload.  Entries are inserted in list order,
    each with one use; over-capacity inserts evict as usual.  Replaying
    a {!dump} of equal-cost entries therefore reproduces their order,
    and restoring it into a smaller cache keeps the tail the dump would
    have evicted last.  Entries of unequal cost re-rank by cost alone,
    since their use counts are not kept.  No-op on a disabled cache. *)

val digest : string -> string
(** MD5 hex of a key — a short display handle for logs and
    diagnostics; never used for addressing. *)

val clear : 'v t -> unit
(** Drop every entry and reset [L] (counters keep their totals;
    [evictions] and [evicted_cost_s] do not count cleared entries). *)
