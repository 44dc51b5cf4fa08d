open Gmt_ir
module Workload = Gmt_workloads.Workload

type error = { file : string; line : int; col : int; msg : string }

let render_error e = Printf.sprintf "%s:%d:%d: %s" e.file e.line e.col e.msg

exception Error of error

(* ----------------------------- lexer ------------------------------ *)

type tok =
  | IDENT of string
  | INT of int
  | STRING of string
  | LPAREN | RPAREN | LBRACKET | RBRACKET | LBRACE | RBRACE
  | COLON | COMMA | EQUALS | QUESTION | PLUS
  | EOF

let tok_desc = function
  | IDENT s -> Printf.sprintf "'%s'" s
  | INT n -> Printf.sprintf "integer %d" n
  | STRING s -> Printf.sprintf "string %S" s
  | LPAREN -> "'('" | RPAREN -> "')'"
  | LBRACKET -> "'['" | RBRACKET -> "']'"
  | LBRACE -> "'{'" | RBRACE -> "'}'"
  | COLON -> "':'" | COMMA -> "','" | EQUALS -> "'='"
  | QUESTION -> "'?'" | PLUS -> "'+'"
  | EOF -> "end of input"

type ptok = { t : tok; line : int; col : int }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* The parser pulls tokens from the source one at a time: [i] is the
   next byte to lex, and the lookahead token is lexed only when the
   parser first asks for it, so no token outlives the next one and the
   first error in the text is the one reported. *)
type state = {
  file : string;
  src : string;
  mutable i : int;
  mutable line : int;  (* 1-based line of byte [i] *)
  mutable bol : int;  (* offset of that line's first byte *)
  mutable tok : tok;  (* the lookahead, when [ready] *)
  mutable tline : int;
  mutable tcol : int;
  mutable ready : bool;
}

let lex_error st i msg =
  raise (Error { file = st.file; line = st.line; col = i - st.bol + 1; msg })

let emit st tok next =
  st.tok <- tok;
  st.i <- next;
  st.ready <- true

(* Whitespace and comments (from '#' to end of line) before a token. *)
let rec skip st i =
  if i >= String.length st.src then i
  else
    match st.src.[i] with
    | ' ' | '\t' | '\r' -> skip st (i + 1)
    | '\n' ->
      st.line <- st.line + 1;
      st.bol <- i + 1;
      skip st (i + 1)
    | '#' -> skip st (comment st.src (i + 1))
    | _ -> i

and comment src i =
  if i >= String.length src || src.[i] = '\n' then i else comment src (i + 1)

let rec digits src i =
  if i < String.length src && is_digit src.[i] then digits src (i + 1) else i

(* The value of the digits [src.[k..j)], added to [v]'s. *)
let rec decimal src k j v =
  if k = j then v else decimal src (k + 1) j ((10 * v) + Char.code src.[k] - 48)

let rec ident_end src i =
  let n = String.length src in
  if
    i < n
    && (is_ident_char src.[i]
       || (src.[i] = '-' && i + 1 < n && is_ident_start src.[i + 1]))
  then ident_end src (i + 1)
  else i

(* The integer literal [src.[at..j)], a '-' then digits from [d]. Up to
   18 digits cannot overflow and are read in place; a longer literal
   takes int_of_string_opt's range check. *)
let lex_int st ~at ~d =
  let src = st.src in
  let j = digits src d in
  if j - d <= 18 then
    let v = decimal src d j 0 in
    emit st (INT (if d > at then -v else v)) j
  else
    let s = String.sub src at (j - at) in
    match int_of_string_opt s with
    | Some v -> emit st (INT v) j
    | None ->
      lex_error st at (Printf.sprintf "integer literal %s out of range" s)

(* The string literal opening at [at]: the inverse of
   Printer.escape_string. *)
let lex_string st ~at =
  let src = st.src in
  let n = String.length src in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then lex_error st at "unterminated string literal"
    else
      match src.[i] with
      | '"' -> emit st (STRING (Buffer.contents buf)) (i + 1)
      | '\\' ->
        if i + 1 >= n then
          lex_error st i "unterminated escape in string literal";
        let esc c =
          Buffer.add_char buf c;
          go (i + 2)
        in
        (match src.[i + 1] with
        | '"' -> esc '"'
        | '\\' -> esc '\\'
        | 'n' -> esc '\n'
        | 't' -> esc '\t'
        | 'r' -> esc '\r'
        | 'x' ->
          if i + 3 >= n then lex_error st i "truncated \\xHH escape";
          let hex = String.sub src (i + 2) 2 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some b -> Buffer.add_char buf (Char.chr b)
          | None ->
            lex_error st i (Printf.sprintf "invalid \\x escape \"\\x%s\"" hex));
          go (i + 4)
        | c ->
          lex_error st i (Printf.sprintf "unknown escape '\\%c' in string" c))
      | '\n' -> lex_error st i "newline in string literal (use \\n)"
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go (at + 1)

(* Lex the token at [st.i] into the lookahead. *)
let lex st =
  let src = st.src in
  let at = skip st st.i in
  st.tline <- st.line;
  st.tcol <- at - st.bol + 1;
  if at >= String.length src then emit st EOF at
  else
    match src.[at] with
    | '(' -> emit st LPAREN (at + 1)
    | ')' -> emit st RPAREN (at + 1)
    | '[' -> emit st LBRACKET (at + 1)
    | ']' -> emit st RBRACKET (at + 1)
    | '{' -> emit st LBRACE (at + 1)
    | '}' -> emit st RBRACE (at + 1)
    | ':' -> emit st COLON (at + 1)
    | ',' -> emit st COMMA (at + 1)
    | '=' -> emit st EQUALS (at + 1)
    | '?' -> emit st QUESTION (at + 1)
    | '+' -> emit st PLUS (at + 1)
    | '"' -> lex_string st ~at
    | '-' ->
      if at + 1 < String.length src && is_digit src.[at + 1] then
        lex_int st ~at ~d:(at + 1)
      else
        lex_error st at "unexpected '-' (only integer literals may be negative)"
    | c when is_digit c -> lex_int st ~at ~d:at
    | c when is_ident_start c ->
      (* '-' joins identifier parts when a letter follows ("gmt-ir"),
         and never a digit, so negative integer literals stay intact. *)
      let j = ident_end src (at + 1) in
      emit st (IDENT (String.sub src at (j - at))) j
    | c -> lex_error st at (Printf.sprintf "unexpected character %C" c)

(* ----------------------------- parser ----------------------------- *)

let peek st =
  if not st.ready then lex st;
  st.tok

let advance st =
  if not st.ready then lex st;
  st.ready <- false

(* The lookahead with its position, for an error or a recorded
   position. *)
let here st =
  let t = peek st in
  { t; line = st.tline; col = st.tcol }

let next st =
  let p = here st in
  st.ready <- false;
  p

let fail_at st (p : ptok) fmt =
  Printf.ksprintf
    (fun msg -> raise (Error { file = st.file; line = p.line; col = p.col; msg }))
    fmt

(* The uniform unexpected-token error: names every alternative the
   grammar would have accepted at this point. *)
let unexpected st (p : ptok) ~expected =
  fail_at st p "expected %s, got %s" (String.concat " or " expected)
    (tok_desc p.t)

(* The lookahead's unexpected-token error. *)
let unexpected_here st ~expected = unexpected st (here st) ~expected

(* The [expect_*] family consumes the lookahead without building its
   [ptok]: every [mem[A] = V] line goes through them. [t] carries no
   payload, so physical equality decides it. *)
let expect_tok st t ~what =
  if peek st == t then st.ready <- false
  else unexpected_here st ~expected:[ what ]

let expect_int st ~what =
  match peek st with
  | INT v ->
    st.ready <- false;
    v
  | _ -> unexpected_here st ~expected:[ what ]

let expect_string st ~what =
  match peek st with
  | STRING s ->
    st.ready <- false;
    s
  | _ -> unexpected_here st ~expected:[ what ]

let expect_kw st kw =
  match peek st with
  | IDENT s when s = kw -> st.ready <- false
  | _ -> unexpected_here st ~expected:[ Printf.sprintf "'%s'" kw ]

(* rK / BK / mK / qK / iK ident forms. *)
let indexed_of prefix s =
  let pl = String.length prefix in
  if
    String.length s > pl
    && String.sub s 0 pl = prefix
    && String.for_all is_digit (String.sub s pl (String.length s - pl))
  then int_of_string_opt (String.sub s pl (String.length s - pl))
  else None

let reg_of s = indexed_of "r" s
let label_of s = indexed_of "B" s
let region_of s = indexed_of "m" s
let queue_of s = indexed_of "q" s
let iid_of s = indexed_of "i" s

let binops =
  [
    ("add", Instr.Add); ("sub", Instr.Sub); ("mul", Instr.Mul);
    ("div", Instr.Div); ("rem", Instr.Rem); ("and", Instr.And);
    ("or", Instr.Or); ("xor", Instr.Xor); ("shl", Instr.Shl);
    ("shr", Instr.Shr); ("lt", Instr.Lt); ("le", Instr.Le);
    ("eq", Instr.Eq); ("ne", Instr.Ne); ("gt", Instr.Gt); ("ge", Instr.Ge);
    ("min", Instr.Min); ("max", Instr.Max); ("fadd", Instr.Fadd);
    ("fsub", Instr.Fsub); ("fmul", Instr.Fmul); ("fdiv", Instr.Fdiv);
    ("fmin", Instr.Fmin); ("fmax", Instr.Fmax);
  ]

let unops =
  [
    ("neg", Instr.Neg); ("not", Instr.Not); ("abs", Instr.Abs);
    ("fneg", Instr.Fneg); ("fsqrt", Instr.Fsqrt);
  ]

(* Per-function context collected while parsing a [func] section. *)
type fctx = {
  n_regs : int;
  mutable n_regions : int;  (* patched once the regions line is parsed *)
  mutable label_refs : (int * ptok) list;  (* every Bk use, for checking *)
  seen_iids : (int, unit) Hashtbl.t;
  positions : (int, int * int) Hashtbl.t;  (* iid -> (line, col) *)
}

let check_reg st ctx (p : ptok) r =
  if r >= ctx.n_regs then
    fail_at st p "register r%d out of range (func declares regs: %d)" r
      ctx.n_regs;
  Reg.of_int r

let expect_reg st ctx =
  let p = next st in
  match p.t with
  | IDENT s -> (
    match reg_of s with
    | Some r -> check_reg st ctx p r
    | None -> unexpected st p ~expected:[ "a register (rN)" ])
  | _ -> unexpected st p ~expected:[ "a register (rN)" ]

let expect_region st ctx =
  let p = next st in
  match p.t with
  | IDENT s -> (
    match region_of s with
    | Some m ->
      if m >= ctx.n_regions then
        fail_at st p "region m%d out of range (func declares %d region%s)" m
          ctx.n_regions
          (if ctx.n_regions = 1 then "" else "s");
      m
    | None -> unexpected st p ~expected:[ "a memory region (mN)" ])
  | _ -> unexpected st p ~expected:[ "a memory region (mN)" ]

let expect_label st ctx =
  let p = next st in
  match p.t with
  | IDENT s -> (
    match label_of s with
    | Some l ->
      ctx.label_refs <- (l, p) :: ctx.label_refs;
      l
    | None -> unexpected st p ~expected:[ "a block label (BN)" ])
  | _ -> unexpected st p ~expected:[ "a block label (BN)" ]

let expect_queue st =
  let p = next st in
  match p.t with
  | IDENT s -> (
    match queue_of s with
    | Some q -> q
    | None -> unexpected st p ~expected:[ "a queue (qN)" ])
  | _ -> unexpected st p ~expected:[ "a queue (qN)" ]

(* [ mK [ rB + OFF ] ] common to load and store. *)
let parse_mem_operand st ctx =
  let m = expect_region st ctx in
  expect_tok st LBRACKET ~what:"'['";
  let base = expect_reg st ctx in
  expect_tok st PLUS ~what:"'+'";
  let off = expect_int st ~what:"an integer offset" in
  expect_tok st RBRACKET ~what:"']'";
  (m, base, off)

(* One instruction, after its `iN:` prefix has been consumed. *)
let parse_op st ctx =
  let p = next st in
  match p.t with
  | IDENT "store" ->
    let m, base, off = parse_mem_operand st ctx in
    expect_tok st EQUALS ~what:"'='";
    let src = expect_reg st ctx in
    Instr.Store (m, base, off, src)
  | IDENT "jump" -> Instr.Jump (expect_label st ctx)
  | IDENT "branch" ->
    let c = expect_reg st ctx in
    expect_tok st QUESTION ~what:"'?'";
    let l1 = expect_label st ctx in
    expect_tok st COLON ~what:"':'";
    let l2 = expect_label st ctx in
    Instr.Branch (c, l1, l2)
  | IDENT "return" -> Instr.Return
  | IDENT "nop" -> Instr.Nop
  | IDENT "produce" ->
    expect_tok st LBRACKET ~what:"'['";
    let q = expect_queue st in
    expect_tok st RBRACKET ~what:"']'";
    expect_tok st EQUALS ~what:"'='";
    Instr.Produce (q, expect_reg st ctx)
  | IDENT "produce.sync" ->
    expect_tok st LBRACKET ~what:"'['";
    let q = expect_queue st in
    expect_tok st RBRACKET ~what:"']'";
    Instr.Produce_sync q
  | IDENT "consume" ->
    let d = expect_reg st ctx in
    expect_tok st EQUALS ~what:"'='";
    expect_tok st LBRACKET ~what:"'['";
    let q = expect_queue st in
    expect_tok st RBRACKET ~what:"']'";
    Instr.Consume (d, q)
  | IDENT "consume.sync" ->
    expect_tok st LBRACKET ~what:"'['";
    let q = expect_queue st in
    expect_tok st RBRACKET ~what:"']'";
    Instr.Consume_sync q
  | IDENT s when reg_of s <> None -> (
    let d = check_reg st ctx p (Option.get (reg_of s)) in
    expect_tok st EQUALS ~what:"'='";
    let rhs = next st in
    match rhs.t with
    | INT k -> Instr.Const (d, k)
    | IDENT s when reg_of s <> None ->
      Instr.Copy (d, check_reg st ctx rhs (Option.get (reg_of s)))
    | IDENT "load" ->
      let m, base, off = parse_mem_operand st ctx in
      Instr.Load (m, d, base, off)
    | IDENT s when List.mem_assoc s unops ->
      Instr.Unop (List.assoc s unops, d, expect_reg st ctx)
    | IDENT s when List.mem_assoc s binops ->
      let op = List.assoc s binops in
      let a = expect_reg st ctx in
      expect_tok st COMMA ~what:"','";
      let b = expect_reg st ctx in
      Instr.Binop (op, d, a, b)
    | IDENT s ->
      fail_at st rhs
        "unknown opcode '%s' (expected an integer, a register, 'load', a \
         unary op (%s) or a binary op (%s))"
        s
        (String.concat "/" (List.map fst unops))
        (String.concat "/" (List.map fst binops))
    | _ ->
      unexpected st rhs
        ~expected:
          [ "an integer"; "a register"; "'load'"; "a unary or binary opcode" ])
  | _ ->
    unexpected st p
      ~expected:
        [
          "an instruction ('iN: ...' body: rN = ..., store, jump, branch, \
           return, produce, consume, produce.sync, consume.sync, nop)";
        ]

(* `iN:` prefix; enforces id uniqueness. *)
let parse_iid st ctx =
  let p = next st in
  match p.t with
  | IDENT s when iid_of s <> None ->
    let id = Option.get (iid_of s) in
    if Hashtbl.mem ctx.seen_iids id then
      fail_at st p "duplicate instruction id i%d" id;
    Hashtbl.add ctx.seen_iids id ();
    expect_tok st COLON ~what:"':'";
    id
  | _ -> unexpected st p ~expected:[ "an instruction id (iN:)" ]

(* `[r0, r1]` register list. *)
let parse_reg_list st ctx =
  expect_tok st LBRACKET ~what:"'['";
  let rec tail acc =
    let p = next st in
    match p.t with
    | RBRACKET -> List.rev acc
    | COMMA -> (
      let q = next st in
      match q.t with
      | IDENT s when reg_of s <> None ->
        tail (check_reg st ctx q (Option.get (reg_of s)) :: acc)
      | _ -> unexpected st q ~expected:[ "a register (rN)" ])
    | _ -> unexpected st p ~expected:[ "','"; "']'" ]
  in
  let p = here st in
  match p.t with
  | RBRACKET ->
    advance st;
    []
  | IDENT s when reg_of s <> None ->
    advance st;
    tail [ check_reg st ctx p (Option.get (reg_of s)) ]
  | _ -> unexpected st p ~expected:[ "a register (rN)"; "']'" ]

(* Does an instruction start here? (iN followed by ':') *)
let at_instr st =
  match peek st with
  | IDENT s when iid_of s <> None -> true
  | _ -> false

let at_block st =
  match peek st with
  | IDENT s when label_of s <> None -> true
  | _ -> false

(* The whole `func ... { header, regions, entry, blocks }` section. *)
let parse_func_section st =
  let func_p = here st in
  expect_kw st "func";
  let name = expect_string st ~what:"the function name (a quoted string)" in
  expect_tok st LPAREN ~what:"'('";
  expect_kw st "regs";
  expect_tok st COLON ~what:"':'";
  let n_regs = expect_int st ~what:"the register count" in
  if n_regs < 0 then fail_at st func_p "regs must be non-negative";
  expect_tok st COMMA ~what:"','";
  (* regions come later in the text but live lists need the register
     bound only; pre-fill a context and patch n_regions after. *)
  let ctx =
    {
      n_regs;
      n_regions = 0;
      label_refs = [];
      seen_iids = Hashtbl.create 64;
      positions = Hashtbl.create 64;
    }
  in
  expect_kw st "live_in";
  expect_tok st COLON ~what:"':'";
  let live_in = parse_reg_list st ctx in
  expect_tok st COMMA ~what:"','";
  expect_kw st "live_out";
  expect_tok st COLON ~what:"':'";
  let live_out = parse_reg_list st ctx in
  expect_tok st RPAREN ~what:"')'";
  expect_kw st "regions";
  expect_tok st COLON ~what:"':'";
  expect_tok st LBRACKET ~what:"'['";
  let regions = ref [] in
  (let rec go idx first =
     let p = here st in
     match p.t with
     | RBRACKET -> advance st
     | COMMA when not first ->
       advance st;
       binding idx
     | IDENT _ when first -> binding idx
     | _ ->
       unexpected st p ~expected:(if first then [ "mN"; "']'" ] else [ "','"; "']'" ])
   and binding idx =
     let p = next st in
     match p.t with
     | IDENT s when region_of s <> None ->
       let m = Option.get (region_of s) in
       if m <> idx then
         fail_at st p "region index m%d out of order (expected m%d)" m idx;
       expect_tok st EQUALS ~what:"'='";
       let rname = expect_string st ~what:"the region name (a quoted string)" in
       regions := rname :: !regions;
       go (idx + 1) false
     | _ -> unexpected st p ~expected:[ "a memory region (mN)" ]
   in
   go 0 true);
  let regions = Array.of_list (List.rev !regions) in
  ctx.n_regions <- Array.length regions;
  expect_kw st "entry";
  expect_tok st COLON ~what:"':'";
  let entry = expect_label st ctx in
  (* Blocks. *)
  let blocks = Hashtbl.create 16 in
  let order = ref [] in
  if not (at_block st) then
    unexpected_here st ~expected:[ "a block (BN:)" ];
  while at_block st do
    let lp = next st in
    let label =
      match lp.t with
      | IDENT s -> Option.get (label_of s)
      | _ -> assert false
    in
    if Hashtbl.mem blocks label then fail_at st lp "duplicate block B%d" label;
    expect_tok st COLON ~what:"':'";
    let body = ref [] in
    let terminated = ref false in
    while at_instr st do
      let ip = here st in
      if !terminated then
        fail_at st ip "instruction after the terminator of block B%d" label;
      let id = parse_iid st ctx in
      Hashtbl.replace ctx.positions id (ip.line, ip.col);
      let op = parse_op st ctx in
      let instr = Instr.make ~id op in
      if Instr.is_terminator instr then terminated := true;
      body := instr :: !body
    done;
    if not !terminated then
      fail_at st lp "block B%d has no terminator (jump, branch or return)"
        label;
    Hashtbl.add blocks label { Cfg.label; body = List.rev !body };
    order := label :: !order
  done;
  (* Label consistency: every reference resolves, labels are dense. *)
  List.iter
    (fun (l, p) ->
      if not (Hashtbl.mem blocks l) then fail_at st p "undefined label B%d" l)
    (List.rev ctx.label_refs);
  let n_blocks = Hashtbl.length blocks in
  for l = 0 to n_blocks - 1 do
    if not (Hashtbl.mem blocks l) then
      fail_at st func_p
        "block labels are not dense: B%d is missing (blocks must be \
         B0..B%d)"
        l (n_blocks - 1)
  done;
  let cfg =
    Cfg.make ~entry (Array.init n_blocks (fun l -> Hashtbl.find blocks l))
  in
  let f =
    Func.make ~name ~cfg ~n_regs ~regions ~live_in ~live_out
  in
  (* Anything the grammar-level checks above cannot see (e.g. negative
     queue ids are unrepresentable here, but keep the net wide). *)
  (match Validate.errors f with
  | [] -> ()
  | errs ->
    fail_at st func_p "function fails validation: %s"
      (String.concat "; " errs));
  (f, ctx)

(* --------------------------- documents ---------------------------- *)

let parse_input_block st ctx =
  expect_tok st LBRACE ~what:"'{'";
  let regs = ref [] and mem = ref [] in
  let rec go () =
    match peek st with
    | RBRACE -> advance st
    | IDENT "mem" ->
      advance st;
      expect_tok st LBRACKET ~what:"'['";
      let addr = expect_int st ~what:"an address" in
      expect_tok st RBRACKET ~what:"']'";
      expect_tok st EQUALS ~what:"'='";
      let v = expect_int st ~what:"a value" in
      mem := (addr, v) :: !mem;
      go ()
    | IDENT s when reg_of s <> None ->
      let r = check_reg st ctx (next st) (Option.get (reg_of s)) in
      expect_tok st EQUALS ~what:"'='";
      let v = expect_int st ~what:"a value" in
      regs := (r, v) :: !regs;
      go ()
    | _ ->
      unexpected_here st
        ~expected:[ "a register binding (rN = V)"; "mem[A] = V"; "'}'" ]
  in
  go ();
  { Workload.regs = List.rev !regs; mem = List.rev !mem }

type directives = {
  mutable workload : string option;
  mutable suite : string option;
  mutable function_ : string option;
  mutable exec_pct : int option;
  mutable description : string option;
  mutable mem_size : int option;
}

let parse_document st =
  expect_kw st "gmt-ir";
  (let p = next st in
   match p.t with
   | IDENT "v1" -> ()
   | _ -> unexpected st p ~expected:[ "the format version 'v1'" ]);
  let d =
    {
      workload = None;
      suite = None;
      function_ = None;
      exec_pct = None;
      description = None;
      mem_size = None;
    }
  in
  let once name p v = function
    | Some _ -> fail_at st p "duplicate '%s' directive" name
    | None -> Some v
  in
  let rec directives () =
    let p = here st in
    match p.t with
    | IDENT "workload" ->
      advance st;
      d.workload <-
        once "workload" p (expect_string st ~what:"a quoted string") d.workload;
      directives ()
    | IDENT "suite" ->
      advance st;
      d.suite <-
        once "suite" p (expect_string st ~what:"a quoted string") d.suite;
      directives ()
    | IDENT "function" ->
      advance st;
      d.function_ <-
        once "function" p
          (expect_string st ~what:"a quoted string")
          d.function_;
      directives ()
    | IDENT "exec_pct" ->
      advance st;
      d.exec_pct <-
        once "exec_pct" p (expect_int st ~what:"an integer") d.exec_pct;
      directives ()
    | IDENT "description" ->
      advance st;
      d.description <-
        once "description" p
          (expect_string st ~what:"a quoted string")
          d.description;
      directives ()
    | IDENT "mem_size" ->
      advance st;
      let v = expect_int st ~what:"a positive integer" in
      if v <= 0 then fail_at st p "mem_size must be positive";
      d.mem_size <- once "mem_size" p v d.mem_size;
      directives ()
    | IDENT "func" -> ()
    | _ ->
      unexpected st p
        ~expected:
          [
            "a directive (workload/suite/function/exec_pct/description/\
             mem_size)";
            "'func'";
          ]
  in
  directives ();
  let f, ctx = parse_func_section st in
  let train = ref None and reference = ref None in
  let rec inputs () =
    let p = here st in
    match p.t with
    | IDENT "input" ->
      advance st;
      let which = next st in
      (match which.t with
      | IDENT "train" ->
        if !train <> None then
          fail_at st which "duplicate 'input train' section";
        train := Some (parse_input_block st ctx)
      | IDENT "ref" ->
        if !reference <> None then
          fail_at st which "duplicate 'input ref' section";
        reference := Some (parse_input_block st ctx)
      | _ -> unexpected st which ~expected:[ "'train'"; "'ref'" ]);
      inputs ()
    | EOF -> ()
    | _ ->
      unexpected st p ~expected:[ "an 'input train'/'input ref' section";
                                  "end of input" ]
  in
  inputs ();
  let empty = { Workload.regs = []; mem = [] } in
  let w =
    Workload.make
      ~name:(Option.value d.workload ~default:f.Func.name)
      ~suite:(Option.value d.suite ~default:"user")
      ~func_name:(Option.value d.function_ ~default:f.Func.name)
      ~exec_pct:(Option.value d.exec_pct ~default:0)
      ~description:(Option.value d.description ~default:"")
      ~func:f
      ~train:(Option.value !train ~default:empty)
      ~reference:(Option.value !reference ~default:empty)
      ?mem_size:d.mem_size ()
  in
  (w, fun id -> Hashtbl.find_opt ctx.positions id)

(* --------------------------- entry points ------------------------- *)

let with_state ~file src k =
  let st =
    {
      file;
      src;
      i = 0;
      line = 1;
      bol = 0;
      tok = EOF;
      tline = 1;
      tcol = 1;
      ready = false;
    }
  in
  match k st with
  | v -> Ok v
  | exception Error e -> Error e

let parse_func ?(file = "<string>") src =
  with_state ~file src (fun st ->
      let f, _ = parse_func_section st in
      (match peek st with
      | EOF -> ()
      | _ -> unexpected_here st ~expected:[ "end of input" ]);
      f)

(* Like {!parse}, but also return the instruction-id -> (line, col) map
   collected by the parser; [gmtc lint] anchors findings with it. *)
let parse_pos ?(file = "<string>") src = with_state ~file src parse_document

let parse ?(file = "<string>") src =
  Result.map fst (parse_pos ~file src)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let load_pos path =
  if path = "-" then parse_pos ~file:"<stdin>" (read_all stdin)
  else
    match open_in_bin path with
    | exception Sys_error msg ->
      Error { file = path; line = 0; col = 0; msg }
    | ic ->
      let src = read_all ic in
      close_in ic;
      parse_pos ~file:path src

let load path = Result.map fst (load_pos path)

(* -------------------------- serialization ------------------------- *)

let print_func = Printer.func_to_string

let print (w : Workload.t) =
  let buf = Buffer.create 4096 in
  let q s = Printer.escape_string s in
  Printf.bprintf buf "gmt-ir v1\n";
  Printf.bprintf buf "workload %s\n" (q w.name);
  Printf.bprintf buf "suite %s\n" (q w.suite);
  Printf.bprintf buf "function %s\n" (q w.func_name);
  Printf.bprintf buf "exec_pct %d\n" w.exec_pct;
  Printf.bprintf buf "description %s\n" (q w.description);
  Printf.bprintf buf "mem_size %d\n" w.mem_size;
  Printf.bprintf buf "\n%s\n" (print_func w.func);
  let input name (i : Workload.input) =
    Printf.bprintf buf "\ninput %s {\n" name;
    List.iter
      (fun (r, v) -> Printf.bprintf buf "  r%d = %d\n" (Reg.to_int r) v)
      i.Workload.regs;
    List.iter
      (fun (a, v) -> Printf.bprintf buf "  mem[%d] = %d\n" a v)
      i.Workload.mem;
    Printf.bprintf buf "}\n"
  in
  input "train" w.train;
  input "ref" w.reference;
  Buffer.contents buf

(* ---------------------------- equality ---------------------------- *)

let func_equal (a : Func.t) (b : Func.t) =
  let set rs = Reg.Set.of_list rs in
  let blocks f =
    List.init (Cfg.n_blocks f.Func.cfg) (fun l ->
        let blk = Cfg.block f.Func.cfg l in
        (blk.Cfg.label, blk.Cfg.body))
  in
  a.Func.name = b.Func.name
  && a.Func.n_regs = b.Func.n_regs
  && a.Func.regions = b.Func.regions
  && Reg.Set.equal (set a.Func.live_in) (set b.Func.live_in)
  && Reg.Set.equal (set a.Func.live_out) (set b.Func.live_out)
  && Cfg.entry a.Func.cfg = Cfg.entry b.Func.cfg
  && blocks a = blocks b

let workload_equal (a : Workload.t) (b : Workload.t) =
  a.Workload.name = b.Workload.name
  && a.Workload.suite = b.Workload.suite
  && a.Workload.func_name = b.Workload.func_name
  && a.Workload.exec_pct = b.Workload.exec_pct
  && a.Workload.description = b.Workload.description
  && a.Workload.mem_size = b.Workload.mem_size
  && a.Workload.train = b.Workload.train
  && a.Workload.reference = b.Workload.reference
  && func_equal a.Workload.func b.Workload.func
