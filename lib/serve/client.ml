module E = Nanodec_error
module Telemetry = Nanodec_telemetry.Telemetry

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read past the last returned line *)
  timeout_s : float option;
}

let sockaddr_of = function
  | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | `Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let describe = function
  | `Unix path -> Printf.sprintf "unix socket %S" path
  | `Tcp port -> Printf.sprintf "127.0.0.1:%d" port

let connect ?(attempts = 40) ?timeout_s address =
  Option.iter (E.check_timeout_s ~what:"timeout") timeout_s;
  let deadline =
    Option.map (fun s -> (s, Telemetry.monotonic_s () +. s)) timeout_s
  in
  let domain, addr = sockaddr_of address in
  let rec attempt left =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> { fd; buf = Buffer.create 256; timeout_s }
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when left > 1 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match deadline with
      | Some (seconds, dl) when Telemetry.monotonic_s () +. 0.05 >= dl ->
        E.fail (E.Timeout { site = "client.connect"; seconds })
      | Some _ | None -> ());
      Unix.sleepf 0.05;
      attempt (left - 1)
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      E.invalid_inputf ~hint:"is the daemon running?" "cannot connect to %s: %s"
        (describe address) (Unix.error_message err)
  in
  attempt (max 1 attempts)

let write_all fd s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd s !sent (len - !sent)
  done

(* Pop the first buffered line, keeping the tail (pipelined responses
   arrive together). *)
let take_line t =
  let s = Buffer.contents t.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear t.buf;
    Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let read_chunk = 65536

let request t line =
  write_all t.fd line;
  write_all t.fd "\n";
  (* One deadline for the whole response, not per read: a daemon
     dribbling bytes forever is exactly the wedge this guards. *)
  let deadline =
    Option.map (fun s -> (s, Telemetry.monotonic_s () +. s)) t.timeout_s
  in
  let timed_out seconds =
    E.fail (E.Timeout { site = "client.read"; seconds })
  in
  let bytes = Bytes.create read_chunk in
  let rec next () =
    match take_line t with
    | Some l -> l
    | None ->
      (match deadline with
      | None -> ()
      | Some (seconds, dl) -> (
        let remaining = dl -. Telemetry.monotonic_s () in
        if remaining <= 0. then timed_out seconds;
        match Unix.select [ t.fd ] [] [] remaining with
        | [], _, _ -> timed_out seconds
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      (match Unix.read t.fd bytes 0 read_chunk with
      | 0 ->
        E.fail (E.internal "daemon closed the connection before responding")
      | n -> Buffer.add_subbytes t.buf bytes 0 n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      next ()
  in
  next ()

let request_json t json =
  match Json.parse (request t (Json.to_string json)) with
  | Ok v -> v
  | Error msg ->
    E.fail (E.internal (Printf.sprintf "unparsable response from daemon: %s" msg))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ?attempts ?timeout_s address f =
  let t = connect ?attempts ?timeout_s address in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
