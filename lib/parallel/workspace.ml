(* Execution-context-local storage for kernel scratch.  Domain-local
   alone is NOT enough: the serve daemon runs Monte-Carlo jobs from
   several worker systhreads of the same domain (a busy pool runs
   concurrent submissions inline on the submitting thread), and
   systhreads of one domain share its DLS.  Two threads preempting each
   other mid-draw on one shared generator mirror or noise plane corrupt
   each other's samples — nondeterministically, because preemption
   lands wherever the tick falls.  So instances are keyed by (domain,
   thread): threads never share an instance, domains never share an
   instance, and the pool's single-threaded worker domains pay one
   uncontended mutexed lookup per [get]. *)

type 'a t = {
  init : unit -> 'a;
  slots : (Mutex.t * (int, 'a) Hashtbl.t) Domain.DLS.key;
      (* per-domain table keyed by thread id; the mutex makes the
         table safe against a resize preempted mid-rebuild *)
}

let create init =
  {
    init;
    slots = Domain.DLS.new_key (fun () -> (Mutex.create (), Hashtbl.create 8));
  }

let get t =
  let mu, tbl = Domain.DLS.get t.slots in
  let id = Thread.id (Thread.self ()) in
  Mutex.lock mu;
  (* [find], not [find_opt]: the hit path runs once per Monte-Carlo
     sample and must not allocate an option. *)
  match Hashtbl.find tbl id with
  | v ->
    Mutex.unlock mu;
    v
  | exception Not_found ->
    Mutex.unlock mu;
    (* Only this thread ever inserts its own id, so building outside
       the lock cannot double-insert. *)
    let v = t.init () in
    Mutex.lock mu;
    Hashtbl.add tbl id v;
    Mutex.unlock mu;
    v
