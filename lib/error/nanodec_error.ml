type t =
  | Invalid_input of { what : string; hint : string option }
  | Timeout of { site : string; seconds : float }
  | Worker_crash of { site : string; detail : string; injected : bool }
  | Degraded of { site : string; reason : string }
  | Overloaded of { site : string; pending : int; limit : int }
  | Internal of { detail : string }

exception Error of t

(* 2..6 are free below the shells' 126/127 and cmdliner's 124/125;
   70 is sysexits' EX_SOFTWARE, the conventional "internal error". *)
let exit_invalid_input = 2
let exit_timeout = 3
let exit_worker_crash = 4
let exit_degraded = 5
let exit_overloaded = 6
let exit_internal = 70

let exit_code = function
  | Invalid_input _ -> exit_invalid_input
  | Timeout _ -> exit_timeout
  | Worker_crash _ -> exit_worker_crash
  | Degraded _ -> exit_degraded
  | Overloaded _ -> exit_overloaded
  | Internal _ -> exit_internal

let label = function
  | Invalid_input _ -> "invalid-input"
  | Timeout _ -> "timeout"
  | Worker_crash _ -> "worker-crash"
  | Degraded _ -> "degraded"
  | Overloaded _ -> "overloaded"
  | Internal _ -> "internal"

let pp ppf t =
  (match t with
  | Invalid_input { what; _ } ->
    Format.fprintf ppf "[%s] %s" (label t) what
  | Timeout { site; seconds } ->
    Format.fprintf ppf "[%s] %s exceeded its %gs deadline" (label t) site
      seconds
  | Worker_crash { site; detail; injected } ->
    if injected then
      Format.fprintf ppf "[%s] injected fault killed %s: %s" (label t) site
        detail
    else
      Format.fprintf ppf "[%s] worker crashed at %s: %s" (label t) site
        detail
  | Degraded { site; reason } ->
    Format.fprintf ppf
      "[%s] %s ran out of retries and degradation is disabled: %s"
      (label t) site reason
  | Overloaded { site; pending; limit } ->
    Format.fprintf ppf
      "[%s] %s shed the request: %d already pending (limit %d) — retry \
       once the daemon drains"
      (label t) site pending limit
  | Internal { detail } ->
    Format.fprintf ppf "[%s] %s (this is a bug in nanodec)" (label t) detail);
  match t with
  | Invalid_input { hint = Some h; _ } ->
    Format.fprintf ppf "@.  hint: %s" h
  | _ -> ()

let to_string t = Format.asprintf "%a" pp t

let fail t = raise (Error t)

let invalid_inputf ?hint fmt =
  Format.kasprintf (fun what -> fail (Invalid_input { what; hint })) fmt

let check_int_range ~what ?hint ~min ~max n =
  if n < min || n > max then
    invalid_inputf ?hint "%s must be between %d and %d (got %d)" what min max
      n

let internal detail = Internal { detail }

(* --- shared numeric-knob validators ---

   The CLI flags and the serve protocol accept the same execution knobs
   (seed, mc-samples, timeout, chunks); these are the one definition of
   what each accepts, so both surfaces reject bad values with the same
   taxonomy error and the same message.  [what] carries the
   surface-specific spelling ("--mc-samples" vs "mc_samples"). *)

let check_seed ?(what = "seed") seed =
  check_int_range ~what ~min:0 ~max:max_int seed

let check_mc_samples ?(what = "mc-samples") n =
  check_int_range ~what ~min:2 ~max:100_000_000
    ~hint:"Monte-Carlo estimates need at least 2 draws; omit the field to \
           disable the check"
    n

let check_timeout_s ?(what = "timeout") s =
  (* [not (s > 0.)] also catches NaN, which compares false to
     everything. *)
  if not (s > 0.) || s = infinity then
    invalid_inputf "%s must be a positive finite number of seconds (got %h)"
      what s

let parse_chunks ?(what = "chunks") = function
  | "auto" -> `Auto
  | s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> `Fixed n
    | Some _ | None ->
      invalid_inputf
        ~hint:(Printf.sprintf "got %S" s)
        "%s must be 'auto' or a positive integer" what)

let check_rel_error ?(what = "rel-error") r =
  (* [not (r > 0.)] also catches NaN. *)
  if (not (r > 0.)) || r > 0.5 then
    invalid_inputf
      ~hint:
        "the adaptive stopping rule targets z95*SE <= rel-error*|mean|; \
         values above 0.5 would stop before the estimate means anything"
      "%s must be in (0, 0.5] (got %g)" what r

let parse_mc_method ?(what = "mc-method") s =
  let bad () =
    invalid_inputf
      ~hint:(Printf.sprintf "got %S" s)
      "%s must be plain, antithetic, stratified[:STRATA] or \
       importance[:SHIFT]"
      what
  in
  match String.index_opt s ':' with
  | None -> (
    match s with
    | "plain" -> `Plain
    | "antithetic" -> `Antithetic
    | "stratified" -> `Stratified 16
    | "importance" -> `Importance 1.0
    | _ -> bad ())
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match name with
    | "stratified" -> (
      match int_of_string_opt arg with
      | Some k when k >= 2 && k <= 4096 -> `Stratified k
      | Some _ | None ->
        invalid_inputf
          ~hint:(Printf.sprintf "got %S" s)
          "%s: stratified strata count must be an integer in [2, 4096]"
          what)
    | "importance" -> (
      match float_of_string_opt arg with
      | Some f when f > 0. && f <= 8. -> `Importance f
      | Some _ | None ->
        invalid_inputf
          ~hint:(Printf.sprintf "got %S" s)
          "%s: importance shift must be a number in (0, 8]" what)
    | _ -> bad ())
