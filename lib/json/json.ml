type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 64

(* --- parser --- *)

exception Parse_error of string

let fail_at pos fmt =
  Printf.ksprintf (fun msg ->
      raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos)))
    fmt

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail_at !pos "expected '%c', found '%c'" c got
    | None -> fail_at !pos "expected '%c', found end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail_at !pos "unrecognised literal (expected %s)" word
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail_at !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail_at !pos "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail_at !pos "truncated \\u escape";
               let code =
                 try int_of_string ("0x" ^ String.sub s !pos 4)
                 with _ -> fail_at !pos "malformed \\u escape"
               in
               pos := !pos + 4;
               (* Encode the BMP code point as UTF-8; surrogate pairs
                  are passed through as two 3-byte sequences — good
                  enough for a protocol whose field names are ASCII. *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char b
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
             | c -> fail_at !pos "invalid escape '\\%c'" c);
          loop ()
        | c when Char.code c < 0x20 ->
          fail_at !pos "unescaped control character in string"
        | c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let consume p =
      while !pos < n && p s.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    let digits_start = !pos in
    consume (function '0' .. '9' -> true | _ -> false);
    if !pos = digits_start then fail_at !pos "malformed number";
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      let frac_start = !pos in
      consume (function '0' .. '9' -> true | _ -> false);
      if !pos = frac_start then fail_at !pos "malformed number (empty fraction)"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      let exp_start = !pos in
      consume (function '0' .. '9' -> true | _ -> false);
      if !pos = exp_start then fail_at !pos "malformed number (empty exponent)"
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail_at start "malformed number %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* Integer literal beyond int range: keep it as a float rather
           than failing — the protocol's range checks reject it with a
           better message than the parser could. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail_at start "malformed number %S" text)
  in
  let rec parse_value depth =
    if depth > max_depth then fail_at !pos "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail_at !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | Some c -> fail_at !pos "expected ',' or '}', found '%c'" c
          | None -> fail_at !pos "unterminated object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | Some c -> fail_at !pos "expected ',' or ']', found '%c'" c
          | None -> fail_at !pos "unterminated array"
        in
        elements ();
        List (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail_at !pos "unexpected character '%c'" c
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail_at !pos "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- writer --- *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_string f =
  (* %.15g when it reads back as [f], %.17g (always exact) otherwise;
     integral values print without a decimal point, so they parse back
     as [Int].  Non-finite floats cannot be parsed back, so they render
     as null — the protocol layer never emits them. *)
  if Float.is_nan f || f = infinity || f = neg_infinity then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_to_string f)
    | String s -> escape_into b s
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_into b k;
          Buffer.add_char b ':';
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
    Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
