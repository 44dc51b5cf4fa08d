(* gmt_telemetry: histogram bucket layout (golden), merge algebra
   (QCheck), rolling windows under a driven clock, the event log's
   sampling/ring semantics, registry export well-formedness, and span
   timestamps surviving the wire. *)

module H = Gmt_telemetry.Histogram
module Rolling = Gmt_telemetry.Rolling
module Events = Gmt_telemetry.Events
module Registry = Gmt_telemetry.Registry
module Json = Gmt_obs.Json

(* ----------------------------- histogram ---------------------------- *)

(* The layout is part of the wire contract (merges across processes
   depend on it), so pin it value by value. *)
let test_bucket_layout () =
  Alcotest.(check int) "n_buckets" 224 H.n_buckets;
  (* Linear region: bucket i holds exactly i. *)
  for v = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) v (H.bucket_of v);
    Alcotest.(check int) (Printf.sprintf "bucket_lo %d" v) v (H.bucket_lo v)
  done;
  Alcotest.(check int) "negative clamps to 0" 0 (H.bucket_of (-5));
  (* First octave: [8,16) in 8 sub-buckets of width 1. *)
  Alcotest.(check int) "bucket_of 8" 8 (H.bucket_of 8);
  Alcotest.(check int) "bucket_of 15" 15 (H.bucket_of 15);
  (* Octave [16,32): width-2 sub-buckets. *)
  Alcotest.(check int) "bucket_of 16" 16 (H.bucket_of 16);
  Alcotest.(check int) "bucket_of 17" 16 (H.bucket_of 17);
  Alcotest.(check int) "bucket_of 18" 17 (H.bucket_of 18);
  Alcotest.(check int) "bucket_of 31" 23 (H.bucket_of 31);
  Alcotest.(check int) "bucket_of 32" 24 (H.bucket_of 32);
  (* One sample from deep in the range: 1000 = 2^9 octave, width 64.
     1000 lsr 6 = 15 -> sub 7 of octave 9 -> 8 + (9-3)*8 + 7 = 63. *)
  Alcotest.(check int) "bucket_of 1000" 63 (H.bucket_of 1000);
  Alcotest.(check int) "bucket_lo 63" 960 (H.bucket_lo 63);
  Alcotest.(check int) "bucket_hi 63" 1024 (H.bucket_hi 63);
  (* Overflow clamps into the final bucket. *)
  Alcotest.(check int) "2^30 clamps" (H.n_buckets - 1) (H.bucket_of (1 lsl 30));
  Alcotest.(check int) "max_int clamps" (H.n_buckets - 1) (H.bucket_of max_int);
  (* Structural invariants over every bucket. *)
  for i = 0 to H.n_buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (bucket_lo %d)" i)
      i
      (H.bucket_of (H.bucket_lo i));
    if i > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "lo monotone at %d" i)
        true
        (H.bucket_lo i > H.bucket_lo (i - 1));
    Alcotest.(check bool)
      (Printf.sprintf "lo < hi at %d" i)
      true
      (H.bucket_lo i < H.bucket_hi i);
    (* Relative error bound: bucket width <= 12.5% of its lower bound
       beyond the linear region. *)
    if i >= 8 && i < H.n_buckets - 1 then
      Alcotest.(check bool)
        (Printf.sprintf "width bound at %d" i)
        true
        (8 * (H.bucket_hi i - H.bucket_lo i) <= H.bucket_lo i)
  done

let test_histogram_stats () =
  let h = H.of_values [ 1; 2; 3; 4; 100; 1000 ] in
  Alcotest.(check int) "count" 6 (H.count h);
  Alcotest.(check int) "sum" 1110 (H.sum h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 1000 (H.max_value h);
  Alcotest.(check (float 0.001)) "mean" 185.0 (H.mean h);
  Alcotest.(check int) "empty quantile" 0 (H.quantile (H.create ()) 0.5);
  (* Quantiles are bucket-resolution but must bracket the data. *)
  let q50 = H.quantile h 0.5 and q99 = H.quantile h 0.99 in
  Alcotest.(check bool) "q50 <= q99" true (q50 <= q99);
  Alcotest.(check bool) "q99 <= max" true (q99 <= 1000);
  Alcotest.(check int) "exact in linear region" 3 (H.quantile h 0.5)

let values_gen =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (oneof
         [
           int_range 0 20;
           int_range 0 100_000;
           map (fun k -> 1 lsl k) (int_range 0 35);
         ]))

let arb_values = QCheck.make ~print:QCheck.Print.(list int) values_gen

let same_hist name a b =
  QCheck.assume true;
  H.counts a = H.counts b
  && H.count a = H.count b && H.sum a = H.sum b
  && H.min_value a = H.min_value b
  && H.max_value a = H.max_value b
  || QCheck.Test.fail_reportf "%s: histograms differ" name

let prop_merge_assoc =
  QCheck.Test.make ~count:200 ~name:"histogram merge is associative"
    (QCheck.triple arb_values arb_values arb_values)
    (fun (xs, ys, zs) ->
      let a = H.of_values xs and b = H.of_values ys and c = H.of_values zs in
      same_hist "assoc" (H.merge a (H.merge b c)) (H.merge (H.merge a b) c))

let prop_merge_comm =
  QCheck.Test.make ~count:200 ~name:"histogram merge is commutative"
    (QCheck.pair arb_values arb_values)
    (fun (xs, ys) ->
      let a = H.of_values xs and b = H.of_values ys in
      same_hist "comm" (H.merge a b) (H.merge b a))

let prop_merge_split =
  QCheck.Test.make ~count:200
    ~name:"recording a stream = merging any split of it"
    (QCheck.pair arb_values arb_values)
    (fun (xs, ys) ->
      same_hist "split"
        (H.of_values (xs @ ys))
        (H.merge (H.of_values xs) (H.of_values ys)))

(* The 12.5% guarantee only holds below the overflow clamp at 2^30, so
   this generator stays inside the resolved range. *)
let arb_resolved =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 0 200)
        (oneof
           [
             int_range 0 20;
             int_range 0 100_000;
             map (fun k -> 1 lsl k) (int_range 0 29);
           ]))

let prop_quantile_error =
  QCheck.Test.make ~count:200
    ~name:"quantile within 12.5% above the exact order statistic"
    (QCheck.map (fun l -> 1 :: l) arb_resolved)
    (fun xs ->
      let h = H.of_values xs in
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = List.nth sorted (rank - 1) in
          let est = H.quantile h q in
          est >= exact && float_of_int est <= (1.125 *. float_of_int exact) +. 1.0)
        [ 0.5; 0.9; 0.99 ])

(* ------------------------------ rolling ----------------------------- *)

let test_rolling_sum () =
  let r = Rolling.create ~slots:5 ~slot_s:1.0 Rolling.Sum in
  Alcotest.(check (float 0.001)) "window_s" 5.0 (Rolling.window_s r);
  Rolling.add r ~now:100.0 3;
  Rolling.add r ~now:100.4 2;
  Rolling.add r ~now:101.0 1;
  Alcotest.(check int) "in-window total" 6 (Rolling.total r ~now:101.5);
  (* 100.x expires once now - slot > window. *)
  Alcotest.(check int) "partial expiry" 1 (Rolling.total r ~now:105.5);
  Alcotest.(check int) "full expiry" 0 (Rolling.total r ~now:200.0);
  (* A slot id reused modulo the ring must not resurrect old counts. *)
  Rolling.add r ~now:200.0 7;
  Alcotest.(check int) "fresh epoch" 7 (Rolling.total r ~now:200.0)

let test_rolling_peak () =
  let r = Rolling.create ~slots:3 ~slot_s:1.0 Rolling.Peak in
  Rolling.add r ~now:10.0 4;
  Rolling.add r ~now:10.2 9;
  Rolling.add r ~now:11.0 2;
  Alcotest.(check int) "peak" 9 (Rolling.total r ~now:11.0);
  Alcotest.(check int) "peak after expiry" 2 (Rolling.total r ~now:13.5);
  Alcotest.(check int) "empty peak" 0 (Rolling.total r ~now:100.0)

(* ------------------------------ events ------------------------------ *)

let test_events_ring () =
  Events.reset ();
  Fun.protect ~finally:Events.reset @@ fun () ->
  Events.emit ~kind:"test.a" [ ("n", Json.Num 1.0) ];
  Events.emit ~severity:Events.Warn ~kind:"test.b"
    [ ("msg", Json.Str "da\"nger") ];
  let lines = Events.recent () in
  Alcotest.(check int) "two kept" 2 (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok (Json.Obj fields) ->
        Alcotest.(check bool) "has ts" true (List.mem_assoc "ts" fields);
        Alcotest.(check bool) "has kind" true (List.mem_assoc "kind" fields)
      | _ -> Alcotest.fail ("event line is not a JSON object: " ^ l))
    lines;
  (* Bounded ring: 260 events overflow its 256 lines by 4, and the
     oldest fall off. *)
  Events.reset ();
  for i = 1 to 260 do
    Events.emit ~kind:(Printf.sprintf "k%d" i) []
  done;
  let kinds =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> Json.member "kind" j
        | Error _ -> None)
      (Events.recent ())
  in
  let newest = List.init 256 (fun i -> Printf.sprintf "k%d" (i + 5)) in
  Alcotest.(check bool) "newest 256 kept, oldest first" true
    (kinds = List.map (fun k -> Some (Json.Str k)) newest)

(* ----------------------------- registry ----------------------------- *)

let test_registry_export () =
  let reg = Registry.create () in
  let c = Registry.counter reg "req.total" in
  Registry.incr c;
  Registry.add c 4;
  Alcotest.(check int) "counter" 5 (Registry.counter_value c);
  Alcotest.(check bool) "interned" true (c == Registry.counter reg "req.total");
  let g = Registry.gauge reg "in_flight" in
  Registry.set_gauge g 3;
  let w = Registry.window ~slots:10 ~slot_s:1.0 reg Rolling.Sum "win.x" in
  Rolling.add w ~now:50.0 2;
  let h = Registry.histogram reg "latency.run" in
  List.iter (H.record h) [ 10; 20; 30; 40 ];
  let j = Registry.json ~now:50.0 reg in
  (match Json.member "schema" j with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "gmt-telemetry/1" s
  | _ -> Alcotest.fail "no schema");
  (* The rendered string must re-parse to the same value. *)
  (match Json.parse (Registry.render_json ~now:50.0 reg) with
  | Ok j2 -> Alcotest.(check bool) "self-parse round-trip" true (j = j2)
  | Error e -> Alcotest.fail ("render_json does not parse: " ^ e));
  (match Json.member "histograms" j with
  | Some hs -> (
    match Json.member "latency.run" hs with
    | Some hj ->
      Alcotest.(check (option (float 0.001)))
        "count" (Some 4.0)
        (match Json.member "count" hj with
        | Some (Json.Num f) -> Some f
        | _ -> None)
    | None -> Alcotest.fail "histogram missing from export")
  | None -> Alcotest.fail "no histograms section");
  (* Prometheus text: TYPE lines pair with samples, histogram series are
     cumulative and agree with _count. *)
  let text = Registry.prometheus ~now:50.0 reg in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun l ->
      if l <> "" && not (String.length l >= 6 && String.sub l 0 6 = "# TYPE")
      then
        match String.split_on_char ' ' l with
        | [ name; value ] ->
          Alcotest.(check bool) ("prefixed: " ^ l) true
            (String.length name > 4 && String.sub name 0 4 = "gmt_");
          Alcotest.(check bool) ("numeric: " ^ l) true
            (match float_of_string_opt value with
            | Some _ -> true
            | None ->
              (* bucket lines carry a label before the value *)
              String.contains name '{')
        | _ -> Alcotest.fail ("unparseable sample line: " ^ l))
    lines;
  let cum =
    List.filter_map
      (fun l ->
        match String.index_opt l '}' with
        | Some i
          when String.length l > 17
               && String.sub l 0 23 = "gmt_latency_run_bucket{" ->
          int_of_string_opt
            (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  Alcotest.(check bool) "has bucket series" true (cum <> []);
  let rec nondec = function
    | a :: (b :: _ as rest) -> a <= b && nondec rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative non-decreasing" true (nondec cum);
  Alcotest.(check (option int))
    "last bucket = count" (Some 4)
    (match List.rev cum with x :: _ -> Some x | [] -> None)

(* ------------------------------- trace ------------------------------ *)

(* A daemon ships its spans back as JSON text; an epoch timestamp in
   microseconds (about 1.8e15) must survive the trip to the microsecond,
   or stitched daemon spans land at the wrong place on the timeline. *)
let test_span_timestamps_round_trip () =
  let module Trace = Gmt_telemetry.Trace in
  let module Obs = Gmt_obs.Obs in
  let s =
    {
      Obs.name = "req.compile";
      cat = "stage";
      ts_us = Unix.gettimeofday () *. 1e6;
      dur_us = 1234.567;
      alloc_bytes = 4096.;
      domain = 1;
      args = [];
    }
  in
  let text = Json.to_string (Trace.spans_to_json [ s ]) in
  match Json.parse text with
  | Error e -> Alcotest.failf "spans JSON does not parse: %s" e
  | Ok j -> (
    match Trace.spans_of_json j with
    | [ s' ] ->
      Alcotest.(check (float 1.0)) "ts_us within 1us" s.Obs.ts_us s'.Obs.ts_us;
      Alcotest.(check (float 1e-6)) "dur_us" s.Obs.dur_us s'.Obs.dur_us
    | l -> Alcotest.failf "expected one span back, got %d" (List.length l))

let tests =
  [
    Alcotest.test_case "bucket layout (golden)" `Quick test_bucket_layout;
    Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
    QCheck_alcotest.to_alcotest prop_merge_assoc;
    QCheck_alcotest.to_alcotest prop_merge_comm;
    QCheck_alcotest.to_alcotest prop_merge_split;
    QCheck_alcotest.to_alcotest prop_quantile_error;
    Alcotest.test_case "rolling sum window" `Quick test_rolling_sum;
    Alcotest.test_case "rolling peak window" `Quick test_rolling_peak;
    Alcotest.test_case "event ring bounded" `Quick test_events_ring;
    Alcotest.test_case "registry export + prometheus" `Quick
      test_registry_export;
    Alcotest.test_case "span timestamps survive the wire" `Quick
      test_span_timestamps_round_trip;
  ]
