(** Crash-safe, corruption-tolerant artifact-cache snapshots.

    The daemon's warm state — the rendered fragments of
    {!Artifacts.snapshot} — written as a checksummed, length-prefixed
    record file and published atomically (write to a temporary, fsync,
    rename), so a [kill -9] at any instant leaves either the previous
    complete snapshot or the new one on disk, never a torn mix.

    Records are [(key, build-cost seconds, bytes)]: strings and one
    float, stored verbatim, so loading decodes nothing but the framing.
    The loader trusts nothing: every record carries a CRC-32 over its
    key, cost and bytes, lengths are bounds-checked, and the header
    pins the caller's [schema] string.  {e Any} violation — truncation,
    bit flips, zero fill, trailing garbage, a schema from another build
    — makes {!load} return [Error] with a description; the caller logs
    a warning and starts cold.  A snapshot can cost at worst a warning,
    never a crash loop.  Bump [schema] whenever what the bytes mean
    changes. *)

val save :
  path:string ->
  schema:string ->
  (string * float * string) list ->
  (unit, string) result
(** [save ~path ~schema entries] atomically replaces [path] with a
    snapshot of [entries] ([(key, build-cost seconds, bytes)], in
    {!Artifacts.snapshot} order).  [Error] carries the failed
    syscall's description (disk full, permission, …); the previous
    snapshot, if any, is left intact. *)

val load :
  path:string ->
  schema:string ->
  ((string * float * string) list, string) result
(** [load ~path ~schema] returns the entries in {!save} order, ready
    for {!Artifacts.restore}.  A missing file is [Ok []] (a cold
    start, not an error); every corrupt or mismatched file is [Error]
    with the reason.  Never raises. *)
