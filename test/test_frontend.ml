(* The textual GMT-IR frontend: parser/printer round-trips (golden and
   QCheck over the random program generator), exact-position parse
   diagnostics, and the differential fuzz harness's ability to detect
   seeded miscompiles and shrink them to standalone repros. *)

module Text = Gmt_frontend.Text
module Gen = Gmt_frontend.Gen
module Fuzz = Gmt_frontend.Fuzz
module Suite = Gmt_workloads.Suite
module W = Gmt_workloads.Workload
module V = Gmt_core.Velocity

(* ------------------------- golden diagnostics --------------------- *)

(* A minimal well-formed function the error cases below perturb. *)
let base_func =
  String.concat "\n"
    [
      "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
      "regions: [m0 = \"m0\"]";
      "entry: B0";
      "B0:";
      "  i0: r1 = add r0, r0";
      "  i1: return";
    ]

let check_error name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match Text.parse_func ~file:"t.gmt" src with
      | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
      | Error e ->
        Alcotest.(check string) name expected (Text.render_error e))

let bad_opcode =
  "t.gmt:5:12: unknown opcode 'frobnicate' (expected an integer, a \
   register, 'load', a unary op (neg/not/abs/fneg/fsqrt) or a binary op \
   (add/sub/mul/div/rem/and/or/xor/shl/shr/lt/le/eq/ne/gt/ge/min/max/\
   fadd/fsub/fmul/fdiv/fmin/fmax))"

let golden_errors =
  [
    check_error "bad opcode"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: r1 = frobnicate r0, r0";
           "  i1: return";
           "";
         ])
      bad_opcode;
    check_error "undefined label"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: jump B7";
           "";
         ])
      "t.gmt:5:12: undefined label B7";
    check_error "duplicate block"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: jump B0";
           "B0:";
           "  i1: return";
           "";
         ])
      "t.gmt:6:1: duplicate block B0";
    check_error "region index out of range"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: r1 = load m4[r0 + 0]";
           "  i1: return";
           "";
         ])
      "t.gmt:5:17: region m4 out of range (func declares 1 region)";
  ]

(* ------------------------ lexer diagnostics ----------------------- *)

let header = "func \"t\" (regs: 3, live_in: [r0], live_out: [])"

(* [base_func] with its regions line and block body replaced: the cases
   below put one bad token in either. *)
let func_with ?(regions = "regions: [m0 = \"m0\"]") body =
  String.concat "\n" ([ header; regions; "entry: B0"; "B0:" ] @ body)

(* A source that ends inside the regions line, with no final newline. *)
let regions_eof rest = header ^ "\nregions: [m0 = " ^ rest

let lexer_errors =
  [
    check_error "unterminated string" (regions_eof "\"abc")
      "t.gmt:2:16: unterminated string literal";
    check_error "newline in string"
      (func_with ~regions:"regions: [m0 = \"ab" [ "  i0: return"; "" ])
      "t.gmt:2:19: newline in string literal (use \\n)";
    check_error "unterminated escape" (regions_eof "\"ab\\")
      "t.gmt:2:19: unterminated escape in string literal";
    check_error "truncated \\xHH escape" (regions_eof "\"\\x4")
      "t.gmt:2:17: truncated \\xHH escape";
    check_error "invalid \\x escape"
      (func_with ~regions:"regions: [m0 = \"\\xZZ\"]" [ "  i0: return"; "" ])
      "t.gmt:2:17: invalid \\x escape \"\\xZZ\"";
    check_error "unknown escape"
      (func_with ~regions:"regions: [m0 = \"\\q\"]" [ "  i0: return"; "" ])
      "t.gmt:2:17: unknown escape '\\q' in string";
    check_error "bare minus"
      (func_with [ "  i0: r1 = sub r0, -r0"; "  i1: return"; "" ])
      "t.gmt:5:20: unexpected '-' (only integer literals may be negative)";
    check_error "unexpected character"
      (func_with [ "  i0: r1 = add r0, @r0"; "  i1: return"; "" ])
      "t.gmt:5:20: unexpected character '@'";
    check_error "unexpected byte"
      (func_with [ "  i0: r1 = add r0, \xc3\xa9"; "  i1: return"; "" ])
      "t.gmt:5:20: unexpected character '\\195'";
    (* The parser pulls each token when it gets to it, so a lexical
       error further on does not pre-empt a syntax error before it. *)
    check_error "first error in source order"
      (func_with
         [
           "  i0: r1 = frobnicate r0, r0"; "  i1: jump B1"; "B1:";
           "  i2: r2 = add r1, r1"; "  i3: return \"open";
         ])
      bad_opcode;
  ]

(* The literals a hand-rolled scanner gets wrong: both ends of the
   63-bit range parse, one past either end does not, and neither does
   any 19- or 20-digit form beyond them; leading zeros do not count
   against a literal. *)
let test_int_literals () =
  let src lit = func_with [ "  i0: r1 = " ^ lit; "  i1: return"; "" ] in
  List.iter
    (fun (lit, v) ->
      match Text.parse_func ~file:"t.gmt" (src lit) with
      | Error e -> Alcotest.failf "%s: %s" lit (Text.render_error e)
      | Ok f -> (
        match (Gmt_ir.Cfg.block f.Gmt_ir.Func.cfg 0).Gmt_ir.Cfg.body with
        | { Gmt_ir.Instr.op = Gmt_ir.Instr.Const (_, k); _ } :: _ ->
          Alcotest.(check int) lit v k
        | _ -> Alcotest.failf "%s: not a constant" lit))
    [
      ("4611686018427387903", max_int);
      ("-4611686018427387904", min_int);
      ("000000000000000000000042", 42);
      ("-000000000000000000000042", -42);
      ("-0", 0);
    ];
  List.iter
    (fun lit ->
      match Text.parse_func ~file:"t.gmt" (src lit) with
      | Ok _ -> Alcotest.failf "%s parsed" lit
      | Error e ->
        Alcotest.(check string) lit
          (Printf.sprintf "t.gmt:5:12: integer literal %s out of range" lit)
          (Text.render_error e))
    [
      "4611686018427387904"; "-4611686018427387905"; "9999999999999999999";
      "-9999999999999999999"; "18446744073709551616"; "-18446744073709551616";
    ]

(* ----------------------- document diagnostics --------------------- *)

let check_doc_error name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match Text.parse ~file:"t.gmt" src with
      | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
      | Error e ->
        Alcotest.(check string) name expected (Text.render_error e))

(* A whole document whose function ends on line 7; [rest] follows. *)
let doc rest =
  String.concat "\n"
    ([
       "gmt-ir v1"; "workload \"t\""; header; "regions: [m0 = \"m0\"]";
       "entry: B0"; "B0:"; "  i0: return"; "";
     ]
    @ rest)

let document_errors =
  [
    check_doc_error "input: mem line missing ']'"
      (doc [ "input train {"; "  mem[1 = 2"; "}"; "" ])
      "t.gmt:10:9: expected ']', got '='";
    check_doc_error "input: duplicate train"
      (doc [ "input train {"; "  mem[1] = 2"; "}"; "input train {"; "}"; "" ])
      "t.gmt:12:7: duplicate 'input train' section";
    check_doc_error "input: end of input after a newline"
      (doc [ "input train {"; "  mem[1] = 2"; "" ])
      "t.gmt:11:1: expected a register binding (rN = V) or mem[A] = V or \
       '}', got end of input";
    check_doc_error "input: end of input without a newline"
      (doc [ "input train {"; "  mem[1] = 2" ])
      "t.gmt:10:13: expected a register binding (rN = V) or mem[A] = V or \
       '}', got end of input";
    check_doc_error "input: end of input inside a mem line"
      (doc [ "input ref {"; "  mem[1] =" ])
      "t.gmt:10:11: expected a value, got end of input";
    check_doc_error "empty document" ""
      "t.gmt:1:1: expected 'gmt-ir', got end of input";
  ]

let test_golden_roundtrip () =
  match Text.parse_func ~file:"t.gmt" base_func with
  | Error e -> Alcotest.failf "base_func: %s" (Text.render_error e)
  | Ok f ->
    Alcotest.(check string)
      "print (parse base) = base" base_func (Text.print_func f)

(* ------------------------ QCheck round-trip ----------------------- *)

(* >= 200 cases over the shared random-program generator: parse is a
   left inverse of print, for bare functions and whole workloads, and
   re-printing the parse is byte-identical (print is canonical). *)
let arbitrary_seed =
  QCheck.make
    ~print:(fun seed -> Text.print (Gen.workload (Gen.gen ~seed)))
    QCheck.Gen.(int_range 0 1_000_000)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse (print w) = w on random programs"
    arbitrary_seed (fun seed ->
      let stmts = Gen.gen ~seed in
      let f = Gen.lower stmts in
      let w = Gen.workload stmts in
      (match Text.parse_func (Text.print_func f) with
      | Error e -> QCheck.Test.fail_report (Text.render_error e)
      | Ok f' ->
        if not (Text.func_equal f f') then
          QCheck.Test.fail_report "func round-trip not structurally equal");
      match Text.parse (Text.print w) with
      | Error e -> QCheck.Test.fail_report (Text.render_error e)
      | Ok w' ->
        Text.workload_equal w w' && Text.print w' = Text.print w)

(* ------------------- metrics parity after re-parse ---------------- *)

let test_metrics_parity () =
  let w = Suite.find "adpcmdec" in
  let w' =
    match Text.parse (Text.print w) with
    | Ok w' -> w'
    | Error e -> Alcotest.failf "re-parse: %s" (Text.render_error e)
  in
  let metrics_of w =
    Gmt_obs.Obs.reset ();
    Gmt_obs.Obs.enable_metrics ();
    List.iter
      (fun (tech, coco) -> ignore (V.compile ~coco ~verify:false tech w))
      [ (V.Gremio, false); (V.Gremio, true); (V.Dswp, false); (V.Dswp, true) ];
    let j = Gmt_obs.Obs.metrics_json () in
    Gmt_obs.Obs.reset ();
    j
  in
  Alcotest.(check string)
    "metrics byte-identical for re-parsed workload" (metrics_of w)
    (metrics_of w')

(* ----------------------- seeded-fault detection ------------------- *)

(* The differential harness must catch both injected miscompiles, and
   the shrunk repro must still be a valid, still-failing .gmt. *)
let test_fuzz_detects mutation () =
  let seed = 3 in
  let stmts = Gen.gen ~seed in
  (match Fuzz.check_workload (Gen.workload stmts) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "clean program flagged: %s/%s" f.Fuzz.cell
                 f.Fuzz.detail);
  match Fuzz.check_workload ~mutate:mutation (Gen.workload stmts) with
  | Ok () ->
    Alcotest.failf "mutation %s not detected" (Fuzz.mutation_name mutation)
  | Error _ ->
    let small = Fuzz.minimize ~mutate:mutation stmts in
    if List.length small > List.length stmts then
      Alcotest.fail "minimize grew the program";
    let repro = Gen.workload ~name:"repro" small in
    (match Fuzz.check_workload ~mutate:mutation repro with
    | Ok () -> Alcotest.fail "minimized program no longer fails"
    | Error _ -> ());
    (match Text.parse (Text.print repro) with
    | Ok w' ->
      if not (Text.workload_equal repro w') then
        Alcotest.fail "repro does not round-trip"
    | Error e -> Alcotest.failf "repro unparseable: %s" (Text.render_error e))

(* ------------------------- position maps -------------------------- *)

(* [parse_pos] must hand back a 1-based (line, col) for every
   instruction of a parsed document and nothing for foreign ids — the
   contract [gmtc lint] anchors its findings on. *)
let test_parse_pos_total () =
  List.iter
    (fun (w : W.t) ->
      match Text.parse_pos ~file:(w.W.name ^ ".gmt") (Text.print w) with
      | Error e ->
        Alcotest.failf "%s: %s" w.W.name (Text.render_error e)
      | Ok (w', pos) ->
        let lines = ref [] in
        Gmt_ir.Cfg.iter_instrs w'.W.func.Gmt_ir.Func.cfg
          (fun _ (i : Gmt_ir.Instr.t) ->
            match pos i.Gmt_ir.Instr.id with
            | None ->
              Alcotest.failf "%s: i%d has no position" w.W.name
                i.Gmt_ir.Instr.id
            | Some (line, col) ->
              if line < 1 || col < 1 then
                Alcotest.failf "%s: i%d at non-1-based %d:%d" w.W.name
                  i.Gmt_ir.Instr.id line col;
              lines := line :: !lines);
        (* Canonical printing emits one instruction per line. *)
        let sorted = List.sort_uniq compare !lines in
        Alcotest.(check int)
          (w.W.name ^ " distinct lines")
          (List.length !lines) (List.length sorted);
        Alcotest.(check (option (pair int int)))
          (w.W.name ^ " unknown id unmapped")
          None
          (pos (Gmt_ir.Cfg.max_instr_id w'.W.func.Gmt_ir.Func.cfg + 1000)))
    (Suite.all ())

(* The id of the instruction a canonical line holds: ["  iN: ..."]. *)
let iid_of_line line =
  let n = String.length line in
  let rec digits j =
    if j < n && line.[j] >= '0' && line.[j] <= '9' then digits (j + 1) else j
  in
  if n > 3 && String.sub line 0 3 = "  i" then
    let j = digits 3 in
    if j > 3 && j < n && line.[j] = ':' then
      int_of_string_opt (String.sub line 3 (j - 3))
    else None
  else None

(* Every corpus file (the suite's canonical text): each instruction's
   position is where its [  iN:] sits in the text, read off the text
   itself rather than from the parser. *)
let test_parse_pos_matches_text () =
  List.iter
    (fun (w : W.t) ->
      let text = Text.print w in
      let expected =
        List.concat
          (List.mapi
             (fun idx line ->
               match iid_of_line line with
               | Some id -> [ (id, (idx + 1, 3)) ]
               | None -> [])
             (String.split_on_char '\n' text))
      in
      match Text.parse_pos ~file:(w.W.name ^ ".gmt") text with
      | Error e -> Alcotest.failf "%s: %s" w.W.name (Text.render_error e)
      | Ok (w', pos) ->
        let n = ref 0 in
        Gmt_ir.Cfg.iter_instrs w'.W.func.Gmt_ir.Func.cfg (fun _ _ -> incr n);
        Alcotest.(check int)
          (w.W.name ^ " one iN: line per instruction")
          !n (List.length expected);
        List.iter
          (fun (id, at) ->
            Alcotest.(check (option (pair int int)))
              (Printf.sprintf "%s i%d" w.W.name id)
              (Some at) (pos id))
          expected)
    (Suite.all ())

(* ------------------------- byte-edit fuzzing ---------------------- *)

(* Random insertions, deletions and replacements of bytes in ks.gmt,
   drawn mostly from the bytes the grammar gives a meaning to. Whatever
   the edits, [parse] returns: an [Ok] prints and re-parses to an equal
   workload, and an [Error] names a line and column inside the source
   (one past a line's last byte included, where end of input sits). *)
type edit = Insert of int * char | Delete of int | Replace of int * char

let ks_text = lazy (Text.print (Suite.find "ks"))

let apply_edit src = function
  | Insert (p, c) ->
    let p = p mod (String.length src + 1) in
    String.sub src 0 p ^ String.make 1 c
    ^ String.sub src p (String.length src - p)
  | Delete p when src <> "" ->
    let p = p mod String.length src in
    String.sub src 0 p ^ String.sub src (p + 1) (String.length src - p - 1)
  | Replace (p, c) when src <> "" ->
    let p = p mod String.length src in
    String.mapi (fun i b -> if i = p then c else b) src
  | Delete _ | Replace _ -> src

let show_edit = function
  | Insert (p, c) -> Printf.sprintf "insert %C at %d" c p
  | Delete p -> Printf.sprintf "delete at %d" p
  | Replace (p, c) -> Printf.sprintf "replace at %d by %C" p c

let arbitrary_edits =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl (List.init 10 (fun d -> Char.chr (48 + d))));
        ( 3,
          oneofl
            (List.of_seq (String.to_seq "\"\\-#[]{}():,=?+_.xnrtmBiq \n")) );
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let pos = int_range 0 100_000 in
  let edit =
    frequency
      [
        (2, map2 (fun p c -> Insert (p, c)) pos byte);
        (1, map (fun p -> Delete p) pos);
        (2, map2 (fun p c -> Replace (p, c)) pos byte);
      ]
  in
  QCheck.make
    ~print:(fun es -> String.concat "; " (List.map show_edit es))
    (list_size (int_range 1 4) edit)

let prop_byte_edits =
  QCheck.Test.make ~count:500 ~name:"parse survives byte edits to ks.gmt"
    arbitrary_edits (fun edits ->
      let src = List.fold_left apply_edit (Lazy.force ks_text) edits in
      match Text.parse ~file:"ks.gmt" src with
      | exception e ->
        QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e)
      | Ok w -> (
        match Text.parse (Text.print w) with
        | Ok w' -> Text.workload_equal w w'
        | Error e ->
          QCheck.Test.fail_reportf "re-parse: %s" (Text.render_error e))
      | Error e ->
        let lines = Array.of_list (String.split_on_char '\n' src) in
        e.Text.file = "ks.gmt"
        && e.Text.line >= 1
        && e.Text.line <= Array.length lines
        && e.Text.col >= 1
        && e.Text.col <= String.length lines.(e.Text.line - 1) + 1)

(* ------------------------ allocation budget ----------------------- *)

(* Bytes allocated by [f], counted exactly: the minor heap's words plus
   the words allocated straight into the major heap (major minus
   promoted). *)
let allocated_bytes f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  float_of_int (Sys.word_size / 8)
  *. (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Parsing the largest corpus file allocates a bounded multiple of its
   size: the tokens are pulled one at a time, so what remains is the
   parsed workload and one token's boxes at a time. It measured 6.84x
   (the token-array parser 35.5x); the bound leaves 10%. *)
let test_parse_allocation () =
  let text = Text.print (Suite.find "177.mesa") in
  let ratio =
    allocated_bytes (fun () -> Text.parse text)
    /. float_of_int (String.length text)
  in
  Alcotest.(check bool)
    (Printf.sprintf "parsing 177.mesa (%d bytes) allocates %.2fx (<= 7.5x)"
       (String.length text) ratio)
    true (ratio <= 7.5)

let tests =
  golden_errors @ lexer_errors @ document_errors
  @ [
      Alcotest.test_case "integer literal bounds" `Quick test_int_literals;
      Alcotest.test_case "parse_pos matches the text" `Quick
        test_parse_pos_matches_text;
      QCheck_alcotest.to_alcotest prop_byte_edits;
      Alcotest.test_case "parse allocation budget" `Quick
        test_parse_allocation;
      Alcotest.test_case "canonical print round-trips" `Quick
        test_golden_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      Alcotest.test_case "metrics parity after re-parse" `Quick
        test_metrics_parity;
      Alcotest.test_case "fuzz detects drop-produce" `Quick
        (test_fuzz_detects Fuzz.Drop_produce);
      Alcotest.test_case "fuzz detects swap-branch" `Quick
        (test_fuzz_detects Fuzz.Swap_branch);
      Alcotest.test_case "parse_pos maps every instruction" `Quick
        test_parse_pos_total;
    ]
