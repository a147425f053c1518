(** The structured error taxonomy of the nanodec runtime.

    Every failure a user (or a supervising service) can observe is one
    of six shapes, each with its own process exit code, so scripts and
    orchestrators can react to {e what kind} of failure happened rather
    than parsing message text:

    {ul
    {- {!Invalid_input} (exit {!exit_invalid_input}) — a malformed or
       out-of-range argument, environment variable or derived
       configuration.  The run never started; fix the input.}
    {- {!Timeout} (exit {!exit_timeout}) — a job or a client call
       exceeded its deadline of [seconds].}
    {- {!Worker_crash} (exit {!exit_worker_crash}) — a chunk of parallel
       work died and the supervisor could not (or was not allowed to)
       recover it.  [injected] distinguishes faults planted by the
       fault-injection engine from organic crashes.}
    {- {!Degraded} (exit {!exit_degraded}) — a job's chunk ran out of
       retries and degradation to sequential execution was disabled, so
       the run refused to continue.}
    {- {!Overloaded} (exit {!exit_overloaded}) — the daemon's admission
       control shed the request because its bounded work queue was
       full.  The work was never started; retry after a drain.}
    {- {!Internal} (exit {!exit_internal}) — an invariant violation; a
       bug in nanodec itself, never the user's fault.}}

    Layers raise {!Error}; the CLI renders it with {!pp} and exits with
    {!exit_code}.  Raising sites should prefer the smart constructors
    ({!invalid_inputf}, {!fail}) so messages stay uniform. *)

type t =
  | Invalid_input of { what : string; hint : string option }
  | Timeout of { site : string; seconds : float }
  | Worker_crash of { site : string; detail : string; injected : bool }
  | Degraded of { site : string; reason : string }
  | Overloaded of { site : string; pending : int; limit : int }
  | Internal of { detail : string }

exception Error of t
(** The one exception the public entry points let escape on failure. *)

val exit_invalid_input : int  (** 2 *)

val exit_timeout : int  (** 3 *)

val exit_worker_crash : int  (** 4 *)

val exit_degraded : int  (** 5 *)

val exit_overloaded : int  (** 6 *)

val exit_internal : int  (** 70, sysexits' EX_SOFTWARE *)

val exit_code : t -> int
(** The documented, stable exit code of each constructor. *)

val label : t -> string
(** Short kebab-case tag ([invalid-input], [timeout], [worker-crash],
    [degraded], [overloaded], [internal]) used in rendered messages and
    logs. *)

val pp : Format.formatter -> t -> unit
(** One-line message followed by an indented [hint:] line when the
    error carries one. *)

val to_string : t -> string

val fail : t -> 'a
(** [fail t] raises [Error t]. *)

val invalid_inputf :
  ?hint:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [invalid_inputf ?hint fmt ...] formats the message and raises
    [Error (Invalid_input _)]. *)

val check_int_range : what:string -> ?hint:string -> min:int -> max:int -> int -> unit
(** [check_int_range ~what ~min ~max n] raises [Invalid_input] naming
    [what], the offending value and the accepted range unless
    [min <= n <= max]. *)

val internal : string -> t
(** [Internal] from a detail string (typically [Printexc.to_string]). *)

(** {1 Shared execution-knob validators}

    One definition of what the common numeric knobs accept, shared
    between the CLI flags and the serve protocol so both surfaces
    reject bad values identically ([Invalid_input], exit code 2 / JSON
    kind [invalid-input]).  [?what] carries the surface-specific
    spelling of the knob ("--mc-samples" vs "mc_samples"). *)

val check_seed : ?what:string -> int -> unit
(** Seeds are non-negative. *)

val check_mc_samples : ?what:string -> int -> unit
(** Monte-Carlo draw counts are in [2, 100_000_000]: estimates need at
    least two draws, so an explicit 0 (or 1, or any negative value) is
    rejected — a surface that wants "disabled" must omit the knob
    entirely rather than pass 0. *)

val check_timeout_s : ?what:string -> float -> unit
(** Deadlines are strictly positive and finite; NaN is rejected. *)

val parse_chunks : ?what:string -> string -> [ `Auto | `Fixed of int ]
(** Parse a chunking spec: ["auto"] or a positive decimal integer;
    anything else (including ["0"] and negatives) is [Invalid_input]. *)

val check_rel_error : ?what:string -> float -> unit
(** Adaptive-stopping relative-error targets lie in (0, 0.5]; NaN,
    zero, negatives and anything above 0.5 are [Invalid_input]. *)

val parse_mc_method :
  ?what:string ->
  string ->
  [ `Plain | `Antithetic | `Stratified of int | `Importance of float ]
(** Parse a Monte-Carlo sampling strategy: [plain], [antithetic],
    [stratified] (16 strata), [stratified:K] with K in [2, 4096],
    [importance] (shift 1.0) or [importance:S] with S in (0, 8].
    Anything else is [Invalid_input]. *)
