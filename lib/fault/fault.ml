module Rng = Nanodec_rng.Rng
module Telemetry = Nanodec_telemetry.Telemetry

type action = Crash | Delay of float | Stall of float

type rule = {
  site : string;
  action : action;
  prob : float;
  max_fires : int option;
  only_key : int option;
  after : int;
}

type plan = { seed : int; rules : rule list }

exception Injected of { site : string; key : int }

let () =
  Printexc.register_printer (function
    | Injected { site; key } ->
      Some (Printf.sprintf "Fault.Injected(site %s, key %d)" site key)
    | _ -> None)

let known_sites =
  [ "pool.chunk"; "mc.sample_batch"; "cave.window"; "telemetry.flush";
    "serve.dispatch"; "serve.snapshot" ]

let default_seed = 2009
let env_var = "NANODEC_FAULT_PLAN"

(* --- plan spec --- *)

let grammar_hint =
  "plan is seed=INT and/or SITE:ACTION[:p=F][:max=N][:key=N][:after=N] \
   entries joined by ';' — actions: crash, delay=DUR, stall=DUR (DUR like \
   2ms or 0.5s); sites: " ^ String.concat ", " known_sites

let parse_duration s =
  let num scale text =
    match float_of_string_opt text with
    | Some f when f >= 0. -> Ok (f *. scale)
    | Some _ | None -> Error (Printf.sprintf "bad duration %S" s)
  in
  match
    if Filename.check_suffix s "ms" then
      Some (1e-3, Filename.chop_suffix s "ms")
    else if Filename.check_suffix s "s" then
      Some (1., Filename.chop_suffix s "s")
    else None
  with
  | Some (scale, text) -> num scale text
  | None -> Error (Printf.sprintf "duration %S needs an ms or s suffix" s)

let parse_action s =
  match String.index_opt s '=' with
  | None when s = "crash" -> Ok Crash
  | None -> Error (Printf.sprintf "unknown action %S" s)
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match name with
    | "delay" -> Result.map (fun d -> Delay d) (parse_duration arg)
    | "stall" -> Result.map (fun d -> Stall d) (parse_duration arg)
    | _ -> Error (Printf.sprintf "unknown action %S" name))

let parse_opt rule s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "malformed option %S (want name=value)" s)
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    let int_arg k =
      match int_of_string_opt arg with
      | Some n when n >= 0 -> Ok (k n)
      | Some _ | None -> Error (Printf.sprintf "bad integer in %S" s)
    in
    match name with
    | "p" -> (
      match float_of_string_opt arg with
      | Some p when p >= 0. && p <= 1. -> Ok { rule with prob = p }
      | Some _ | None ->
        Error (Printf.sprintf "probability in %S must be in [0, 1]" s))
    | "max" -> int_arg (fun n -> { rule with max_fires = Some n })
    | "key" -> int_arg (fun n -> { rule with only_key = Some n })
    | "after" -> int_arg (fun n -> { rule with after = n })
    | _ -> Error (Printf.sprintf "unknown option %S" name))

let parse_rule s =
  match String.split_on_char ':' s with
  | site :: action :: opts when List.mem site known_sites ->
    Result.bind (parse_action action) (fun action ->
        List.fold_left
          (fun acc opt -> Result.bind acc (fun r -> parse_opt r opt))
          (Ok
             {
               site;
               action;
               prob = 1.;
               max_fires = None;
               only_key = None;
               after = 0;
             })
          opts)
  | site :: _ :: _ ->
    Error
      (Printf.sprintf "unknown site %S (valid: %s)" site
         (String.concat ", " known_sites))
  | _ -> Error (Printf.sprintf "malformed rule %S (want site:action...)" s)

let parse s =
  let entries =
    List.filter
      (fun e -> String.trim e <> "")
      (String.split_on_char ';' s)
  in
  List.fold_left
    (fun acc entry ->
      Result.bind acc (fun plan ->
          let entry = String.trim entry in
          match String.index_opt entry ':' with
          | None -> (
            match String.split_on_char '=' entry with
            | [ "seed"; v ] -> (
              match int_of_string_opt v with
              | Some seed when seed >= 0 -> Ok { plan with seed }
              | Some _ | None ->
                Error (Printf.sprintf "bad seed in %S" entry))
            | _ ->
              Error
                (Printf.sprintf "malformed entry %S (want seed=N or a rule)"
                   entry))
          | Some _ ->
            Result.map
              (fun rule -> { plan with rules = plan.rules @ [ rule ] })
              (parse_rule entry)))
    (Ok { seed = default_seed; rules = [] })
    entries

let parse_exn s =
  match parse s with
  | Ok plan -> plan
  | Error msg ->
    Nanodec_error.fail
      (Nanodec_error.Invalid_input
         {
           what = Printf.sprintf "fault plan %S: %s" s msg;
           hint = Some grammar_hint;
         })

let duration_to_string d =
  if Float.is_integer (d *. 1e3) && d < 1. then
    Printf.sprintf "%gms" (d *. 1e3)
  else Printf.sprintf "%gs" d

let action_to_string = function
  | Crash -> "crash"
  | Delay d -> "delay=" ^ duration_to_string d
  | Stall d -> "stall=" ^ duration_to_string d

let rule_to_string r =
  String.concat ""
    [
      r.site;
      ":";
      action_to_string r.action;
      (if r.prob = 1. then "" else Printf.sprintf ":p=%g" r.prob);
      (match r.max_fires with
      | None -> ""
      | Some n -> Printf.sprintf ":max=%d" n);
      (match r.only_key with
      | None -> ""
      | Some k -> Printf.sprintf ":key=%d" k);
      (if r.after = 0 then "" else Printf.sprintf ":after=%d" r.after);
    ]

let plan_to_string p =
  String.concat ";"
    (Printf.sprintf "seed=%d" p.seed :: List.map rule_to_string p.rules)

(* --- engine --- *)

type rule_state = {
  rule : rule;
  rule_seed : int;  (* mix of the plan seed and the rule's position *)
  mutable fires : int;
  mutable evals : int;  (* eligible (key-matching) evaluations so far *)
  attempts : (int, int) Hashtbl.t;  (* key -> evaluations of that key *)
}

type t = {
  p : plan;
  mutex : Mutex.t;
  by_site : (string, rule_state list) Hashtbl.t;
  site_seq : (string, int ref) Hashtbl.t;  (* default-key sequence *)
  fired_by_site : (string, int ref) Hashtbl.t;
  mutable sink : Telemetry.sink option;
}

let create p =
  let by_site = Hashtbl.create 8 in
  List.iteri
    (fun i rule ->
      let st =
        {
          rule;
          rule_seed = Rng.mix_seed p.seed i;
          fires = 0;
          evals = 0;
          attempts = Hashtbl.create 64;
        }
      in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_site rule.site)
      in
      Hashtbl.replace by_site rule.site (prev @ [ st ]))
    p.rules;
  {
    p;
    mutex = Mutex.create ();
    by_site;
    site_seq = Hashtbl.create 8;
    fired_by_site = Hashtbl.create 8;
    sink = None;
  }

let inert () = create { seed = default_seed; rules = [] }

let of_env () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> Some (create (parse_exn s))

let plan t = t.p

let set_telemetry t sink = t.sink <- sink

(* Per-domain suppression flag: the degraded sequential pass runs with
   injection off so a poisoned run can still complete. *)
let suppression_key = Domain.DLS.new_key (fun () -> false)
let suppressed () = Domain.DLS.get suppression_key

let without_faults f =
  let prev = Domain.DLS.get suppression_key in
  Domain.DLS.set suppression_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set suppression_key prev)
    f

let bump tbl site =
  let cell =
    match Hashtbl.find_opt tbl site with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.add tbl site c;
      c
  in
  incr cell;
  !cell

(* Decide, under the engine mutex, which actions fire for this
   evaluation.  The draw is a pure function of (plan seed, rule index,
   key, per-key attempt number), so decisions do not depend on domain
   scheduling: a chunk retried on another domain sees the same stream. *)
let decide t ~key site =
  Mutex.lock t.mutex;
  let states =
    match Hashtbl.find_opt t.by_site site with Some l -> l | None -> []
  in
  let key =
    match key with
    | Some k -> k
    | None -> if states = [] then 0 else bump t.site_seq site
  in
  let fired_now =
    List.filter_map
      (fun st ->
        let r = st.rule in
        let key_ok =
          match r.only_key with None -> true | Some k -> k = key
        in
        if not key_ok then None
        else begin
          let attempt =
            Option.value ~default:0 (Hashtbl.find_opt st.attempts key)
          in
          Hashtbl.replace st.attempts key (attempt + 1);
          let eval = st.evals in
          st.evals <- eval + 1;
          let budget_ok =
            match r.max_fires with None -> true | Some m -> st.fires < m
          in
          if eval < r.after || not budget_ok then None
          else
            let u =
              Rng.float
                (Rng.of_seed (Rng.mix_seed (Rng.mix_seed st.rule_seed key) attempt))
            in
            if u < r.prob then begin
              st.fires <- st.fires + 1;
              ignore (bump t.fired_by_site site);
              Some r.action
            end
            else None
        end)
      states
  in
  let sink = t.sink in
  Mutex.unlock t.mutex;
  (match sink with
  | Some s ->
    List.iter
      (fun action ->
        Telemetry.count (Some s) ("fault.fired." ^ site) 1;
        Telemetry.count (Some s)
          (match action with
          | Crash -> "fault.injected.crash"
          | Delay _ -> "fault.injected.delay"
          | Stall _ -> "fault.injected.stall")
          1)
      fired_now
  | None -> ());
  (key, fired_now)

let hit t ?key site =
  match t with
  | None -> ()
  | Some t ->
    if not (suppressed ()) then begin
      let key, actions = decide t ~key site in
      (* Sleeps first, so a rule list mixing a stall and a crash stalls
         the worker before killing it — the worst case. *)
      List.iter
        (function Delay d | Stall d -> Unix.sleepf d | Crash -> ())
        actions;
      if List.exists (function Crash -> true | _ -> false) actions then
        raise (Injected { site; key })
    end

let fired t =
  Mutex.lock t.mutex;
  let l =
    Hashtbl.fold (fun site n acc -> (site, !n) :: acc) t.fired_by_site []
  in
  Mutex.unlock t.mutex;
  List.sort compare l

let total_fired t = List.fold_left (fun acc (_, n) -> acc + n) 0 (fired t)
