(* Crash-safe artifact-cache snapshots.

   On-disk layout (all integers little-endian):

     magic line        "nanodec-snapshot v2\n"
     schema line       caller schema + "\n"
     u32  count        number of records
     record*count      u32 key_len | key | f64 cost_s | u32 val_len | val
                       | u32 crc
     (end of file — trailing bytes are corruption)

   [cost_s] is the entry's build cost in seconds, as the IEEE-754 bits
   of the float; [val] is the stored bytes verbatim.  [crc] is CRC-32
   (reflected, polynomial 0xEDB88320) over key, cost and val.  Nothing
   is ever decoded beyond these fields: the loader hands back strings,
   and what they mean is the caller's business, pinned by the schema
   line. *)

let magic = "nanodec-snapshot v2\n"

(* A record must fit in memory many times over; anything claiming a
   gigabyte-scale length is a torn or hostile file, not a cache. *)
let max_len = 1 lsl 30

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc s =
  let table = Lazy.force crc_table in
  let crc = ref crc in
  String.iter
    (fun ch ->
      crc := (!crc lsr 8) lxor table.((!crc lxor Char.code ch) land 0xff))
    s;
  !crc

let crc32 parts =
  lnot (List.fold_left crc32_update 0xFFFFFFFF parts) land 0xFFFFFFFF

let cost_bytes cost_s =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float cost_s);
  Bytes.unsafe_to_string b

(* --- save --- *)

let add_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)

let write_file path data =
  (* Atomic publish: the complete snapshot is written and fsynced
     under a temporary name, then renamed over [path] in one step — a
     crash at any point leaves either the old snapshot or the new one,
     never a torn mix.  The temporary lives in the same directory so
     the rename cannot cross filesystems. *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes = Bytes.unsafe_of_string data in
      let len = Bytes.length bytes in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write fd bytes !written (len - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp path

let save ~path ~schema entries =
  try
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    Buffer.add_string buf schema;
    Buffer.add_char buf '\n';
    add_u32 buf (List.length entries);
    List.iter
      (fun (key, cost_s, value) ->
        let cost = cost_bytes cost_s in
        add_u32 buf (String.length key);
        Buffer.add_string buf key;
        Buffer.add_string buf cost;
        add_u32 buf (String.length value);
        Buffer.add_string buf value;
        add_u32 buf (crc32 [ key; cost; value ]))
      entries;
    write_file path (Buffer.contents buf);
    Ok ()
  with
  | Unix.Unix_error (err, fn, arg) ->
    Error
      (Printf.sprintf "%s: %s %s failed: %s" path fn arg
         (Unix.error_message err))
  | Sys_error msg -> Error msg

(* --- load --- *)

exception Corrupt of string

let corruptf fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let u32 data pos =
  Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let parse ~schema data =
  let len = String.length data in
  let pos = ref 0 in
  let need n what =
    if n > len - !pos then
      corruptf "truncated: %s needs %d bytes, %d left" what n (len - !pos)
  in
  let take_u32 what =
    need 4 what;
    let n = u32 data !pos in
    pos := !pos + 4;
    n
  in
  let take_str n what =
    need n what;
    let s = String.sub data !pos n in
    pos := !pos + n;
    s
  in
  let magic_len = String.length magic in
  need magic_len "magic";
  if String.sub data 0 magic_len <> magic then corruptf "bad magic";
  pos := magic_len;
  let schema_end =
    match String.index_from_opt data !pos '\n' with
    | Some i when i - !pos <= 4096 -> i
    | Some _ | None -> corruptf "missing schema line"
  in
  let found = String.sub data !pos (schema_end - !pos) in
  if found <> schema then
    corruptf "schema mismatch: snapshot %S, expected %S" found schema;
  pos := schema_end + 1;
  let count = take_u32 "record count" in
  if count > max_len then corruptf "absurd record count %d" count;
  let entries = ref [] in
  for i = 0 to count - 1 do
    let what = Printf.sprintf "record %d/%d" (i + 1) count in
    let key_len = take_u32 what in
    if key_len > max_len then corruptf "%s: absurd key length" what;
    let key = take_str key_len what in
    let cost = take_str 8 what in
    let val_len = take_u32 what in
    if val_len > max_len then corruptf "%s: absurd value length" what;
    let value = take_str val_len what in
    let crc = take_u32 what in
    if crc <> crc32 [ key; cost; value ] then
      corruptf "%s: CRC mismatch (%s)" what key;
    let cost_s = Int64.float_of_bits (String.get_int64_le cost 0) in
    entries := (key, cost_s, value) :: !entries
  done;
  if !pos <> len then
    corruptf "%d trailing bytes after last record" (len - !pos);
  List.rev !entries

let load ~path ~schema =
  if not (Sys.file_exists path) then Ok []
  else
    match parse ~schema (read_file path) with
    | entries -> Ok entries
    | exception Corrupt msg -> Error (path ^ ": " ^ msg)
    | exception Sys_error msg -> Error msg
