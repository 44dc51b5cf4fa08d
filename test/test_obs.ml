(* The observability layer: span collection and nesting, Chrome trace
   export (round-tripped through the in-tree JSON parser), the metrics
   registry's determinism contract, and the simulator's stall
   attribution (every cycle of every core lands in exactly one bucket).

   Obs state is global; every test that flips a switch resets on the way
   out so the rest of the suite runs with observability off. *)

module Obs = Gmt_obs.Obs
module Json = Gmt_obs.Json
module Sim = Gmt_machine.Sim
module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite

let with_reset f = Fun.protect ~finally:Obs.reset f

(* ------------------------------ json ------------------------------ *)

let test_json_parse () =
  let ok s =
    match Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S should have failed" s
    | Error _ -> ()
  in
  (match ok {|{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": [true, false, null]}|} with
  | Json.Obj fields ->
    Alcotest.(check int) "fields" 3 (List.length fields);
    (match List.assoc "a" fields with
    | Json.Arr [ Json.Num a; Json.Num b; Json.Num c ] ->
      Alcotest.(check (list (float 1e-9))) "numbers" [ 1.0; 2.5; -3.0 ]
        [ a; b; c ]
    | _ -> Alcotest.fail "a is not a 3-number array");
    (match Json.member "b" (Json.Obj fields) with
    | Some (Json.Obj [ ("c", Json.Str s) ]) ->
      Alcotest.(check string) "escaped string" "x\ny" s
    | _ -> Alcotest.fail "b.c missing")
  | _ -> Alcotest.fail "not an object");
  ignore (ok "[]");
  ignore (ok "{}");
  ignore (ok {|"just a string"|});
  bad "";
  bad "{";
  bad "[1, 2,]";
  bad "{\"a\": 1} trailing";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "nul"

let test_json_escape_roundtrip () =
  let cases = [ "plain"; "with \"quotes\""; "tab\tnewline\n"; "back\\slash";
                "ctrl\x01char" ] in
  List.iter
    (fun s ->
      match Json.parse (Json.escape s) with
      | Ok (Json.Str s') -> Alcotest.(check string) "round trip" s s'
      | Ok _ -> Alcotest.fail "escaped string parsed as non-string"
      | Error e -> Alcotest.failf "escape %S unparsable: %s" s e)
    cases

(* ------------------------------ spans ------------------------------ *)

let test_span_disabled_is_transparent () =
  with_reset @@ fun () ->
  let v = Obs.span "invisible" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.spans ()))

let test_collect_nesting () =
  with_reset @@ fun () ->
  let v, spans =
    Obs.collect (fun () ->
        Obs.span "outer" (fun () ->
            let a = Obs.span "inner1" (fun () -> 1) in
            let b = Obs.span "inner2" (fun () -> 2) in
            a + b))
  in
  Alcotest.(check int) "value" 3 v;
  Alcotest.(check (list string))
    "completion order: children before parent"
    [ "inner1"; "inner2"; "outer" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) spans);
  let find n = List.find (fun (s : Obs.span) -> s.Obs.name = n) spans in
  let outer = find "outer" and inner = find "inner1" in
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Obs.ts_us >= outer.Obs.ts_us);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.Obs.ts_us +. inner.Obs.dur_us
    <= outer.Obs.ts_us +. outer.Obs.dur_us +. 1e-6);
  (* Global sink untouched: tracing was never enabled. *)
  Alcotest.(check int) "global sink empty" 0 (List.length (Obs.spans ()))

let test_span_records_on_exception () =
  with_reset @@ fun () ->
  let (), spans =
    Obs.collect (fun () ->
        try Obs.span "boom" (fun () -> failwith "pop") with Failure _ -> ())
  in
  Alcotest.(check (list string))
    "span recorded despite raise" [ "boom" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) spans)

let test_trace_json_roundtrip () =
  with_reset @@ fun () ->
  Obs.enable_tracing ();
  ignore
    (Obs.span "alpha" (fun () -> Obs.span ~cat:"cell" "beta" (fun () -> 7)));
  let j =
    match Json.parse (Obs.trace_json ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace JSON unparsable: %s" e
  in
  (match Json.member "displayTimeUnit" j with
  | Some (Json.Str "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  match Json.member "traceEvents" j with
  | Some (Json.Arr evs) ->
    let complete =
      List.filter_map
        (fun ev ->
          match (Json.member "ph" ev, Json.member "name" ev) with
          | Some (Json.Str "X"), Some (Json.Str n) -> Some (n, ev)
          | _ -> None)
        evs
    in
    Alcotest.(check (list string))
      "both spans exported" [ "alpha"; "beta" ]
      (List.sort compare (List.map fst complete));
    List.iter
      (fun (n, ev) ->
        (match Json.member "ts" ev with
        | Some (Json.Num ts) ->
          Alcotest.(check bool) (n ^ " ts rebased") true (ts >= 0.0)
        | _ -> Alcotest.failf "%s has no ts" n);
        match Json.member "args" ev with
        | Some args -> (
          match Json.member "alloc_bytes" args with
          | Some (Json.Num _) -> ()
          | _ -> Alcotest.failf "%s lacks alloc_bytes arg" n)
        | None -> Alcotest.failf "%s has no args" n)
      complete;
    (* Thread-name metadata present for the recording domain. *)
    Alcotest.(check bool) "has thread_name metadata" true
      (List.exists
         (fun ev ->
           match (Json.member "ph" ev, Json.member "name" ev) with
           | Some (Json.Str "M"), Some (Json.Str "thread_name") -> true
           | _ -> false)
         evs)
  | _ -> Alcotest.fail "traceEvents missing"

(* ------------------------------ metrics ------------------------------ *)

let test_metrics_registry () =
  with_reset @@ fun () ->
  (* Disabled: everything is a no-op. *)
  Obs.Metrics.add "off" 5;
  Alcotest.(check int) "disabled add ignored" 0 (Obs.Metrics.get "off");
  Obs.enable_metrics ();
  Obs.Metrics.add "c" 2;
  Obs.Metrics.add "c" 3;
  Obs.Metrics.peak "p" 4;
  Obs.Metrics.peak "p" 2;
  Obs.Metrics.peak "p" 9;
  Alcotest.(check int) "counter adds" 5 (Obs.Metrics.get "c");
  Alcotest.(check int) "peak keeps max" 9 (Obs.Metrics.get "p");
  let j =
    match Json.parse (Obs.metrics_json ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "metrics JSON unparsable: %s" e
  in
  (match Json.member "schema" j with
  | Some (Json.Str "gmt-metrics/1") -> ()
  | _ -> Alcotest.fail "schema missing");
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
    Alcotest.(check (list string))
      "keys sorted" [ "c"; "p" ] (List.map fst kvs)
  | _ -> Alcotest.fail "counters missing"

(* The registry only ever merges commutative integers, so the metrics
   file must be byte-identical whatever the domain fan-out. *)
let test_metrics_deterministic_across_jobs () =
  let metrics_at jobs =
    with_reset @@ fun () ->
    Obs.enable_metrics ();
    ignore (V.run_matrix ~jobs ~fuel:2_000_000 [ Suite.find "adpcmdec" ]);
    Obs.metrics_json ()
  in
  let baseline = metrics_at 1 in
  Alcotest.(check bool) "registry is non-trivial" true
    (String.length baseline > 100);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "metrics at jobs=%d" jobs)
        baseline (metrics_at jobs))
    [ 2; 3; 4 ]

(* --------------------- stall attribution --------------------- *)

let test_stall_attr_sums_to_cycles () =
  let w = Suite.find "adpcmdec" in
  List.iter
    (fun kind ->
      let m = V.measure_cell kind w in
      Alcotest.(check bool)
        (V.cell_name kind ^ " has stall rows")
        true
        (Array.length m.V.stall_attr > 0);
      Array.iteri
        (fun ci row ->
          Alcotest.(check int)
            (Printf.sprintf "%s core %d buckets sum to cycles"
               (V.cell_name kind) ci)
            m.V.cycles
            (Array.fold_left ( + ) 0 row))
        m.V.stall_attr)
    [ V.Single; V.Mt (V.Gremio, false); V.Mt (V.Dswp, true) ]

(* The issue loops' steady state must not allocate: span allocation is
   setup only (state arrays, caches, closure compilation — O(program +
   memory)), so it fits a constant plus a few bytes per cycle of slack.
   A per-cycle regression (a tuple per cache access, a closure per
   scheduler pass) blows through the linear term immediately: before the
   jit engine these spans ran 11-52 bytes per cycle, an order of
   magnitude over this budget.

   The measured cell executes its program once: one [sim.run] span and
   no interpreter span. The MT interpreter is off the measurement path
   but still serves the fuzzer's schedule explorer, so it keeps the same
   guard, run under a span of its own. *)
let test_run_alloc_bounded () =
  with_reset @@ fun () ->
  let w = Suite.find "ks" in
  let _, expect = V.measure_reference w in
  let m, spans =
    Obs.collect (fun () -> V.measure_cell ~expect (V.Mt (V.Gremio, false)) w)
  in
  Alcotest.(check bool) "run completed" false m.V.fuel_exhausted;
  let named name spans =
    List.filter (fun (s : Obs.span) -> s.Obs.name = name) spans
  in
  Alcotest.(check int) "one sim.run span" 1
    (List.length (named "sim.run" spans));
  List.iter
    (fun name ->
      Alcotest.(check int) ("no " ^ name ^ " span") 0
        (List.length (named name spans)))
    [ "verify.mt_interp"; "oracle.interp" ];
  let c = V.compile V.Gremio w in
  let (), interp_spans =
    Obs.collect (fun () ->
        Obs.span "mt_interp.run" (fun () ->
            ignore
              (Gmt_machine.Mt_interp.run ~init_regs:w.W.reference.W.regs
                 ~init_mem:w.W.reference.W.mem c.V.mtp
                 ~queue_capacity:
                   (V.machine_config V.Gremio).Gmt_machine.Config.queue_size
                 ~mem_size:w.W.mem_size)))
  in
  Alcotest.(check int) "one mt_interp.run span" 1
    (List.length (named "mt_interp.run" interp_spans));
  let budget = 1_500_000. +. (4. *. float_of_int m.V.cycles) in
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.alloc_bytes > budget then
        Alcotest.failf
          "%s allocated %.0f bytes (budget %.0f over %d cycles) — the \
           issue loop is allocating per cycle again"
          s.Obs.name s.Obs.alloc_bytes budget m.V.cycles)
    (named "sim.run" spans @ named "mt_interp.run" interp_spans)

let test_queue_peak_bounded () =
  let w = Suite.find "ks" in
  let c = V.compile V.Gremio w in
  let mc = V.machine_config V.Gremio in
  let r =
    Sim.run ~init_regs:w.W.reference.W.regs ~init_mem:w.W.reference.W.mem mc
      c.V.mtp ~mem_size:w.W.mem_size
  in
  Alcotest.(check bool) "some queue was used" true
    (Array.exists (fun v -> v > 0) r.Sim.queue_peak);
  Array.iteri
    (fun q v ->
      if v > mc.Gmt_machine.Config.queue_size then
        Alcotest.failf "queue %d peak %d exceeds capacity %d" q v
          mc.Gmt_machine.Config.queue_size)
    r.Sim.queue_peak

let tests =
  [
    Alcotest.test_case "json parser accepts/rejects" `Quick test_json_parse;
    Alcotest.test_case "json escape round-trips" `Quick
      test_json_escape_roundtrip;
    Alcotest.test_case "span disabled is transparent" `Quick
      test_span_disabled_is_transparent;
    Alcotest.test_case "collect nests spans" `Quick test_collect_nesting;
    Alcotest.test_case "span records on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "chrome trace round-trips" `Quick
      test_trace_json_roundtrip;
    Alcotest.test_case "metrics registry add/peak/sorted" `Quick
      test_metrics_registry;
    Alcotest.test_case "metrics deterministic across jobs" `Slow
      test_metrics_deterministic_across_jobs;
    Alcotest.test_case "stall attribution sums to cycles" `Quick
      test_stall_attr_sums_to_cycles;
    Alcotest.test_case "queue peaks bounded by capacity" `Quick
      test_queue_peak_bounded;
    Alcotest.test_case "issue loops do not allocate per cycle" `Quick
      test_run_alloc_bounded;
  ]
