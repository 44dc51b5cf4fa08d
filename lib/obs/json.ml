type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Clean runs (no quote, backslash or control character) are copied
   with one [add_substring] — strings here can be a whole GMT-IR
   program, where a per-character loop is measurable on the service's
   warm path. *)
let escape_into buf s =
  let n = String.length s in
  Buffer.add_char buf '"';
  let i = ref 0 in
  while !i < n do
    let start = !i in
    while
      !i < n
      &&
      let c = s.[!i] in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr i
    done;
    if !i > start then Buffer.add_substring buf s start (!i - start);
    if !i < n then begin
      (match s.[!i] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      incr i
    end
  done;
  Buffer.add_char buf '"'

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf s;
  Buffer.contents buf

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* Two phases so the result is a single exact-size allocation (a GC
     concern: a frame can embed a whole GMT-IR program). The scan
     locates the closing quote and counts the bytes escapes will shed;
     escape-free strings (the common case for every small field) are a
     plain [String.sub]. Escape validation happens in the second phase,
     which only runs when an escape was seen. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let saved = ref 0 in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '"' -> false
      | '\\' ->
        (* Skip the escaped character too; for [\uXXXX] the hex tail is
           plain and scans as ordinary characters. *)
        if !pos + 1 >= n then fail "unterminated escape";
        saved := !saved + (if s.[!pos + 1] = 'u' then 5 else 1);
        pos := !pos + 2;
        true
      | c when Char.code c < 0x20 -> fail "control character in string"
      | _ ->
        advance ();
        true
    do
      ()
    done;
    if !pos >= n then fail "unterminated string";
    let stop = !pos in
    advance ();
    if !saved = 0 then String.sub s start (stop - start)
    else begin
      let out = Bytes.create (stop - start - !saved) in
      let oi = ref 0 in
      let put c =
        Bytes.set out !oi c;
        incr oi
      in
      let i = ref start in
      while !i < stop do
        match s.[!i] with
        | '\\' ->
          (match s.[!i + 1] with
          | '"' -> put '"'; i := !i + 2
          | '\\' -> put '\\'; i := !i + 2
          | '/' -> put '/'; i := !i + 2
          | 'b' -> put '\b'; i := !i + 2
          | 'f' -> put '\012'; i := !i + 2
          | 'n' -> put '\n'; i := !i + 2
          | 'r' -> put '\r'; i := !i + 2
          | 't' -> put '\t'; i := !i + 2
          | 'u' ->
            if !i + 6 > stop then fail "bad \\u escape";
            let hex = String.sub s (!i + 2) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* Code points outside Latin-1 are replaced: the emitter
                 never produces them and the parser only checks shape. *)
              put (if code < 0x100 then Char.chr code else '?');
              i := !i + 6)
          | _ -> fail "bad escape")
        | c ->
          put c;
          incr i
      done;
      (* [saved] was exact, so the buffer is exactly full. *)
      assert (!oi = Bytes.length out);
      Bytes.unsafe_to_string out
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Integers below 1e15 print bare; anything else prints in the shortest
   [%g] precision that reads back to the same float, so an epoch
   timestamp in microseconds (about 1.8e15) keeps every digit. A value
   that round-trips in fewer than 15 digits prints the same at 15, since
   [%g] drops trailing zeros, so the search starts there. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then Printf.sprintf "%g" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (num_to_string f)
  | Str s -> escape_into buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fs;
    Buffer.add_char buf '}'

(* Upper-bound-ish size estimate so serializing a service frame (which
   embeds a whole GMT-IR program) does one buffer allocation instead of
   a doubling cascade of major-heap blocks. The slack covers escape
   expansion; [Buffer] still grows if a string is escape-dense. *)
let rec size_hint = function
  | Null | Bool _ -> 5
  | Num _ -> 16
  | Str s -> (String.length s * 9 / 8) + 16
  | Arr vs -> List.fold_left (fun a v -> a + size_hint v + 1) 2 vs
  | Obj fs ->
    List.fold_left
      (fun a (k, v) -> a + String.length k + size_hint v + 6)
      2 fs

let to_string j =
  let buf = Buffer.create (size_hint j) in
  to_buffer buf j;
  Buffer.contents buf
