(** Deterministic fault injection.

    The engine plants failures at named {e sites} — fixed points in the
    runtime where a probe asks "should this evaluation fail?":

    {ul
    {- [pool.chunk] — before a pool chunk body runs (keyed by chunk
       index);}
    {- [mc.sample_batch] — before a Monte-Carlo chunk draws its batch
       (keyed by chunk index);}
    {- [cave.window] — before a cave window-yield estimate fans out;}
    {- [telemetry.flush] — before a telemetry sink is exported;}
    {- [serve.dispatch] — before a daemon worker executes a request
       (keyed by the request's arrival sequence number);}
    {- [serve.snapshot] — before the daemon writes an artifact-cache
       snapshot (keyed by the snapshot ordinal).}}

    A {e plan} is a seed plus a list of rules, written in a compact
    spec accepted by {!parse} and by the [NANODEC_FAULT_PLAN]
    environment variable / the CLI's [--fault-plan]:

    {v
    plan  ::= entry (';' entry)*
    entry ::= 'seed=' INT | rule
    rule  ::= site ':' action (':' opt)*
    action::= 'crash' | 'delay=' DUR | 'stall=' DUR
    opt   ::= 'p=' FLOAT | 'max=' INT | 'key=' INT | 'after=' INT
    DUR   ::= FLOAT ('ms' | 's')
    v}

    Example: ["seed=7;pool.chunk:crash:p=0.05:max=3;mc.sample_batch:delay=2ms:p=0.1"]
    crashes each pool chunk with probability 5 % (at most 3 times
    overall) and delays a tenth of the Monte-Carlo batches by 2 ms.

    {2 Determinism}

    Whether a rule fires on a given evaluation depends only on the plan
    seed, the rule, the caller-supplied key and how many times that key
    has been evaluated before — {e never} on wall-clock time, domain
    scheduling or the domain count.  Two runs with the same plan inject
    the same faults; a retried chunk (same key, next attempt) gets a
    fresh, equally deterministic decision, which is what lets bounded
    retries clear transient injected crashes.

    {2 Overhead}

    Probes are free when no engine is installed: {!hit} on [None] is a
    single branch.  Enabled probes take the engine mutex, so the engine
    is meant for chaos testing, not steady-state production overhead. *)

type action =
  | Crash  (** raise {!Injected} at the site *)
  | Delay of float  (** sleep this many seconds, then continue *)
  | Stall of float
      (** sleep this many seconds, simulating a stuck worker; identical
          mechanics to [Delay] but counted separately so stall
          experiments are distinguishable in telemetry *)

type rule = {
  site : string;
  action : action;
  prob : float;  (** fire probability per eligible evaluation; default 1 *)
  max_fires : int option;  (** total fire budget for the rule *)
  only_key : int option;  (** restrict to one evaluation key *)
  after : int;  (** skip the first [after] eligible evaluations *)
}

type plan = { seed : int; rules : rule list }

exception Injected of { site : string; key : int }
(** The exception a [crash] action raises.  The supervised pool treats
    it as transient (retry, then degrade); everything else should let it
    propagate to the taxonomy boundary. *)

val known_sites : string list
(** The valid [site] names; {!parse} rejects anything else. *)

val default_seed : int
(** 2009, as everywhere in the reproduction. *)

val env_var : string
(** ["NANODEC_FAULT_PLAN"]. *)

val parse : string -> (plan, string) result
(** Parse the spec grammar above.  The empty string parses to an empty
    plan (no rules). *)

val parse_exn : string -> plan
(** {!parse}, raising [Nanodec_error.Error (Invalid_input _)] with the
    grammar as hint on malformed input. *)

val plan_to_string : plan -> string
(** Render a plan back into the spec grammar ([parse] round-trips). *)

type t
(** A live engine: a plan plus its deterministic decision state. *)

val create : plan -> t

val inert : unit -> t
(** An engine with no rules — compiled-in, enabled, but never firing.
    The probe-cost baseline used by the bench overhead gate and the
    proptest transparency oracle. *)

val of_env : unit -> t option
(** [Some] engine when {!env_var} is set and non-empty; raises
    [Nanodec_error.Error (Invalid_input _)] on a malformed value. *)

val plan : t -> plan

val set_telemetry : t -> Nanodec_telemetry.Telemetry.sink option -> unit
(** Record every fired fault in the sink: counters
    [fault.injected.crash|delay|stall] and [fault.fired.<site>]. *)

val hit : t option -> ?key:int -> string -> unit
(** [hit engine ~key site] evaluates every rule bound to [site] for
    evaluation key [key] (defaulting to a per-site sequence number) and
    performs the fired actions: sleeps for delays/stalls, raises
    {!Injected} for crashes.  [hit None] is a no-op; so is any hit
    inside {!without_faults}. *)

val without_faults : (unit -> 'a) -> 'a
(** Run [f] with injection suppressed on the calling domain — the
    degraded-execution escape hatch: a sequential fallback pass runs
    under [without_faults] so a degraded job can still complete. *)

val suppressed : unit -> bool
(** Whether the calling domain is currently inside {!without_faults}. *)

val fired : t -> (string * int) list
(** Fired-fault counts per site, sorted by site name. *)

val total_fired : t -> int
