(* The gmtd compile service, driven in-process: concurrent clients get
   byte-identical answers to offline rendering, the artifact cache
   survives daemon restarts, a deliberately corrupted cache entry is
   detected and transparently recompiled, overload produces explicit
   busy replies, malformed frames are rejected, and fuel exhaustion
   comes back as the documented timeout exit. *)

module Server = Gmt_service.Server
module Client = Gmt_service.Client
module Render = Gmt_service.Render
module Proto = Gmt_service.Proto
module Cache = Gmt_cache.Cache
module Json = Gmt_obs.Json
module Obs = Gmt_obs.Obs
module Trace = Gmt_telemetry.Trace
module Registry = Gmt_telemetry.Registry
module V = Gmt_core.Velocity
module Text = Gmt_frontend.Text
module Suite = Gmt_workloads.Suite
module W = Gmt_workloads.Workload

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gmtd-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let with_server ?cache_dir ?(jobs = 2) ?(queue_bound = 64) ?fuel_cap
    ?(mem_capacity = 128) f =
  let cfg =
    {
      (Server.default_config ~socket:(fresh_socket ())) with
      Server.jobs;
      cache_dir;
      queue_bound;
      fuel_cap;
      mem_capacity;
    }
  in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let workload name =
  match Suite.lookup name with
  | Ok w -> w
  | Error e -> Alcotest.failf "suite lookup %s: %s" name e

let request_ok ~socket req =
  match Client.request ~socket req with
  | Ok o -> o
  | Error `No_daemon -> Alcotest.fail "daemon not reachable"
  | Error (`Busy m) -> Alcotest.failf "unexpected busy: %s" m
  | Error (`Protocol m) -> Alcotest.failf "protocol error: %s" m

let check_outcome label (expect : Render.outcome) (got : Render.outcome) =
  Alcotest.(check string) (label ^ " stdout") expect.Render.out got.Render.out;
  Alcotest.(check string) (label ^ " stderr") expect.Render.err got.Render.err;
  Alcotest.(check int) (label ^ " exit") expect.Render.code got.Render.code

(* ----------------------- concurrent identity ----------------------- *)

(* Four cells across two kernels. Offline outcomes are rendered first in
   this domain; then four client domains issue the same requests
   concurrently against one daemon, twice each (second round hits the
   cache), and every reply must match the offline bytes. *)
let test_concurrent_clients () =
  let cells =
    [
      ("ks", "gremio", V.Gremio, false);
      ("ks", "dswp", V.Dswp, false);
      ("adpcmdec", "gremio", V.Gremio, true);
      ("adpcmdec", "dswp", V.Dswp, true);
    ]
  in
  let offline =
    List.map
      (fun (name, _, technique, coco) ->
        Render.run ~technique ~coco ~threads:2 (workload name))
      cells
  in
  with_server ~jobs:4 @@ fun srv ->
  let socket = Server.socket srv in
  let clients =
    List.map
      (fun (name, tech, _, coco) ->
        Domain.spawn (fun () ->
            let gmt = Text.print (workload name) in
            let req =
              Client.run_request ~gmt ~technique:tech ~coco ~threads:2 ()
            in
            let cold = request_ok ~socket req in
            let warm = request_ok ~socket req in
            (cold, warm)))
      cells
  in
  let replies = List.map Domain.join clients in
  List.iteri
    (fun i ((cold, warm), expect) ->
      let label = Printf.sprintf "cell %d" i in
      check_outcome (label ^ " cold") expect cold;
      check_outcome (label ^ " warm") expect warm;
      Alcotest.(check string) (label ^ " warm cache") "hit"
        warm.Render.cache_status)
    (List.combine replies offline);
  let s = Cache.stats (Server.cache srv) in
  Alcotest.(check int) "4 misses" 4 s.Cache.misses;
  Alcotest.(check int) "4 hits" 4 s.Cache.hits

(* ------------------- corruption drill + restart -------------------- *)

let test_corrupt_entry_recompiled () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmtd-test-cache-%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun n -> cleanup (Filename.concat path n))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let w = workload "ks" in
  let gmt = Text.print w in
  let req = Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 () in
  let offline = Render.run ~technique:V.Gremio ~coco:false ~threads:2 w in
  let key =
    Render.fingerprint ~n_threads:2 ~coco:false V.Gremio ~canonical:gmt
  in
  (* Round 1: populate the on-disk store, then corrupt the entry. *)
  let entry_path =
    with_server ~cache_dir:dir @@ fun srv ->
    let o = request_ok ~socket:(Server.socket srv) req in
    check_outcome "populate" offline o;
    Option.get (Cache.entry_path (Server.cache srv) key)
  in
  Alcotest.(check bool) "entry on disk" true (Sys.file_exists entry_path);
  let contents = Option.get (Gmt_cache.Diskio.read_file entry_path) in
  let broken = Bytes.of_string contents in
  let last = Bytes.length broken - 1 in
  Bytes.set broken last (Char.chr (Char.code (Bytes.get broken last) lxor 0xff));
  Gmt_cache.Diskio.write_atomic entry_path (Bytes.to_string broken);
  (* Round 2: a fresh daemon on the same store detects the damage,
     recompiles transparently, and the client still gets offline
     bytes. *)
  with_server ~cache_dir:dir @@ fun srv ->
  let socket = Server.socket srv in
  let o = request_ok ~socket req in
  check_outcome "recompiled" offline o;
  Alcotest.(check string) "reply is a miss" "miss" o.Render.cache_status;
  let s = Cache.stats (Server.cache srv) in
  Alcotest.(check int) "corrupt counted" 1 s.Cache.corrupt;
  Alcotest.(check int) "recompile stored" 1 s.Cache.stores;
  (* The counter is visible to clients through the stats op. *)
  match Client.rpc ~socket Client.stats_request with
  | Ok j ->
    let corrupt =
      Option.bind (Json.member "cache" j) (fun c ->
          match Json.member "corrupt" c with
          | Some (Json.Num n) -> Some (int_of_float n)
          | _ -> None)
    in
    Alcotest.(check (option int)) "stats op corrupt" (Some 1) corrupt;
    (* And a third request hits the rewritten entry. *)
    let o3 = request_ok ~socket req in
    check_outcome "after recompile" offline o3;
    Alcotest.(check string) "third is a hit" "hit" o3.Render.cache_status
  | Error _ -> Alcotest.fail "stats op failed"

(* ------------------------------ busy ------------------------------- *)

let test_busy_reply () =
  with_server ~queue_bound:0 @@ fun srv ->
  let socket = Server.socket srv in
  let gmt = Text.print (workload "ks") in
  let req = Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 () in
  (match Client.request ~socket req with
  | Error (`Busy msg) ->
    Alcotest.(check bool) "busy names itself" true
      (String.length msg > 0
      && String.sub msg 0 10 = "gmtd: busy")
  | Ok _ -> Alcotest.fail "expected busy, got an answer"
  | Error `No_daemon -> Alcotest.fail "expected busy, got No_daemon"
  | Error (`Protocol m) -> Alcotest.failf "expected busy, got protocol: %s" m);
  (* The bound applies at accept, before the op is read, so a stats
     request is shed too: it must read as busy, not as an idle daemon's
     frame. *)
  match Client.stats ~socket with
  | Error (`Busy _) -> ()
  | Ok _ -> Alcotest.fail "stats: expected busy, got a stats frame"
  | Error `No_daemon -> Alcotest.fail "stats: expected busy, got No_daemon"
  | Error (`Protocol m) ->
    Alcotest.failf "stats: expected busy, got protocol: %s" m

(* Busy semantics under real concurrent load, with two pool workers:
   with queue_bound 1, four client domains firing back-to-back requests
   must each either get a well-formed exit-6 busy reply or the exact
   offline bytes — and the server must survive the storm with its pool
   counters advancing. *)
let test_busy_under_load () =
  let offline =
    Render.run ~technique:V.Gremio ~coco:false ~threads:2
      (workload "ks")
  in
  Alcotest.(check int) "busy exit code is 6" 6 Render.exit_busy;
  with_server ~jobs:2 ~queue_bound:1 @@ fun srv ->
  let socket = Server.socket srv in
  let gmt = Text.print (workload "ks") in
  let req =
    Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  (* Alcotest reports through one shared formatter that is not
     domain-safe, so a client only records what it saw — replies, busy
     messages, and the error that ended it early — and every assertion
     runs here after the join. *)
  let clients =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let rec go n ok busy =
              if n = 0 then (ok, busy, None)
              else
                match Client.request ~socket req with
                | Ok o -> go (n - 1) (o :: ok) busy
                | Error (`Busy msg) -> go (n - 1) ok (msg :: busy)
                | Error `No_daemon ->
                  (ok, busy, Some "daemon vanished under load")
                | Error (`Protocol m) ->
                  (ok, busy, Some ("protocol error under load: " ^ m))
            in
            go 20 [] []))
  in
  let replies = List.map Domain.join clients in
  List.iter (fun (_, _, error) -> Option.iter Alcotest.fail error) replies;
  List.iter
    (fun (_, busy, _) ->
      List.iter
        (fun msg ->
          Alcotest.(check bool) "busy names itself" true
            (String.length msg >= 10 && String.sub msg 0 10 = "gmtd: busy"))
        busy)
    replies;
  let oks = List.concat_map (fun (ok, _, _) -> ok) replies in
  let busy =
    List.fold_left (fun a (_, b, _) -> a + List.length b) 0 replies
  in
  Alcotest.(check bool) "some requests answered" true (oks <> []);
  Alcotest.(check bool) "bound actually pushed back" true (busy > 0);
  List.iter (fun o -> check_outcome "loaded reply" offline o) oks;
  (* The storm went through the pool: stats/3 must show it. The
     accept-time shed can still answer busy for a moment after the
     clients join: each client reads its last reply and closes, but the
     worker only releases its in_flight slot once it observes the EOF,
     so the probe retries while the tail drains. *)
  let rec stats_after_drain deadline =
    match Client.rpc ~socket Client.stats_request with
    | Error _ -> Alcotest.fail "stats rpc after load failed"
    | Ok j -> (
      match Proto.bool_field j "ok" with
      | Some false when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        stats_after_drain deadline
      | _ -> j)
  in
  let j = stats_after_drain (Unix.gettimeofday () +. 5.0) in
  (match Json.member "pool" j with
    | Some p ->
      let f name =
        match Json.member name p with
        | Some (Json.Num v) -> int_of_float v
        | _ -> -1
      in
      Alcotest.(check int) "pool.workers" 2 (f "workers");
      Alcotest.(check bool) "pool.tasks_run advanced" true (f "tasks_run" > 0)
    | None -> Alcotest.fail "stats/3 frame lacks pool object")

(* With --jobs 1 the one handler runs on a worker domain, not on the
   accept loop: a connection that sends nothing holds that worker while
   the accept loop still sheds the next connection with a busy reply.
   Each stats call runs in its own domain under a 5 s deadline, so a
   daemon whose accept loop stalls fails the test instead of hanging
   it. *)
let test_jobs1_idle_connection () =
  with_server ~jobs:1 ~queue_bound:1 @@ fun srv ->
  let socket = Server.socket srv in
  let idle = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let closed = ref false in
  let close_idle () =
    if not !closed then begin
      closed := true;
      try Unix.close idle with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:close_idle @@ fun () ->
  Unix.connect idle (Unix.ADDR_UNIX socket);
  let stats_within label =
    let result = Atomic.make None in
    let d =
      Domain.spawn (fun () -> Atomic.set result (Some (Client.stats ~socket)))
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get result = None && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    match Atomic.get result with
    | Some r ->
      Domain.join d;
      r
    | None ->
      (* Closing the idle connection unblocks the stalled daemon, so
         the client domain and the server can still be joined. *)
      close_idle ();
      Domain.join d;
      Alcotest.failf "%s: no stats reply within 5 s" label
  in
  (match stats_within "idle connection open" with
  | Error (`Busy _) -> ()
  | Ok _ -> Alcotest.fail "expected busy, got a stats frame"
  | Error `No_daemon -> Alcotest.fail "expected busy, got No_daemon"
  | Error (`Protocol m) -> Alcotest.failf "expected busy, got protocol: %s" m);
  close_idle ();
  (* The worker frees the slot once it reads the EOF; retry until it
     has. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec served () =
    match stats_within "idle connection closed" with
    | Ok _ -> ()
    | Error (`Busy _) when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      served ()
    | Error (`Busy m) | Error (`Protocol m) ->
      Alcotest.failf "stats after the idle connection closed: %s" m
    | Error `No_daemon -> Alcotest.fail "daemon vanished"
  in
  served ()

(* -------------------------- malformed frame ------------------------ *)

let test_malformed_frame () =
  with_server @@ fun srv ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX (Server.socket srv));
  (* Declared length far over max_frame. *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 0x7fffffffl;
  ignore (Unix.write fd header 0 4);
  (match Proto.read_frame fd with
  | Ok (j, _) ->
    Alcotest.(check (option bool)) "rejected" (Some false)
      (Proto.bool_field j "ok")
  | Error _ -> Alcotest.fail "no error reply to a malformed frame");
  (* The server hangs up after answering. *)
  Alcotest.(check bool) "connection closed" true
    (match Proto.read_frame fd with Error `Eof -> true | _ -> false)

(* The frame payload is the only way a program arrives: a compile
   request that inlines the program in a "gmt" field and attaches
   nothing is refused like any request without a program. *)
let test_gmt_field_ignored () =
  with_server @@ fun srv ->
  let req =
    Client.check_request ~gmt:"" ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  let body =
    match req.Client.body with
    | Json.Obj fields ->
      Json.Obj (fields @ [ ("gmt", Json.Str (Text.print (workload "ks"))) ])
    | j -> j
  in
  let o = request_ok ~socket:(Server.socket srv) { req with Client.body } in
  Alcotest.(check int) "exit" Render.exit_parse o.Render.code;
  Alcotest.(check string) "stderr" "gmtc: request lacks GMT-IR\n" o.Render.err;
  Alcotest.(check string) "stdout" "" o.Render.out

(* ------------------------- fuel timeout ---------------------------- *)

let test_fuel_timeout () =
  let w = workload "ks" in
  let offline =
    Render.run ~fuel:10 ~technique:V.Gremio ~coco:false ~threads:2 w
  in
  Alcotest.(check int) "offline timeout exit" Render.exit_timeout
    offline.Render.code;
  with_server @@ fun srv ->
  let gmt = Text.print w in
  let o =
    request_ok ~socket:(Server.socket srv)
      (Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2
         ~fuel:10 ())
  in
  check_outcome "served timeout" offline o

(* The server-side cap clamps even a request that asked for no fuel at
   all to the same timeout a --fuel client would see. *)
let test_fuel_cap () =
  let w = workload "ks" in
  let offline =
    Render.run ~fuel:10 ~technique:V.Gremio ~coco:false ~threads:2 w
  in
  with_server ~fuel_cap:10 @@ fun srv ->
  let gmt = Text.print w in
  let o =
    request_ok ~socket:(Server.socket srv)
      (Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ())
  in
  check_outcome "capped" offline o

(* --------------------------- trace + stats ------------------------- *)

(* A traced cold run round-trips its trace id through the wire protocol
   and ships back the server's per-stage span set; adopting the reply
   spans into a local collect scope stitches both halves into one valid
   Chrome trace. *)
let test_traced_request () =
  with_server @@ fun srv ->
  let socket = Server.socket srv in
  let gmt = Text.print (workload "ks") in
  let trace_id = Trace.genid () in
  Alcotest.(check int) "trace id is 16 chars" 16 (String.length trace_id);
  let req =
    Client.traced ~parent_span:"remote.run" ~trace_id
      (Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ())
  in
  (* Raw frame first: the id must come back verbatim with a span array. *)
  let reply =
    match Client.rpc ~socket req with
    | Ok j -> j
    | Error _ -> Alcotest.fail "traced rpc failed"
  in
  Alcotest.(check (option string))
    "trace id round-trips" (Some trace_id)
    (Proto.str_field reply "trace_id");
  let spans =
    match Json.member "spans" reply with
    | Some arr -> Trace.spans_of_json arr
    | None -> Alcotest.fail "traced reply lacks spans"
  in
  let stage_names =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Obs.span) ->
           if s.Obs.cat = "stage" then Some s.Obs.name else None)
         spans)
  in
  (* A cold run covers the whole pipeline: decode, fingerprint, cache
     lookup, compile, verify, simulate, encode. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 stages (got %s)"
       (String.concat "," stage_names))
    true
    (List.length stage_names >= 6);
  Array.iter
    (fun name ->
      Alcotest.(check bool) ("stage present: " ^ name) true
        (List.mem name stage_names))
    Trace.stage_names;
  Alcotest.(check bool) "serve span present" true
    (List.exists (fun (s : Obs.span) -> s.Obs.name = "serve.run") spans);
  (* One execution per measured program: the reference and the compiled
     cell are simulated once each, and no interpreter re-runs either. *)
  let named name spans =
    List.filter (fun (s : Obs.span) -> s.Obs.name = name) spans
  in
  Alcotest.(check int) "cold run: two sim.run spans" 2
    (List.length (named "sim.run" spans));
  List.iter
    (fun name ->
      Alcotest.(check int) ("cold run: no " ^ name ^ " span") 0
        (List.length (named name spans)))
    [ "oracle.interp"; "verify.mt_interp" ];
  (* A warm run is one cache probe and one simulation: the record the
     cold run left replaces the parse and the reference. *)
  let traced_run req =
    match Client.rpc ~socket req with
    | Ok j -> (
      match Json.member "spans" j with
      | Some arr -> Trace.spans_of_json arr
      | None -> Alcotest.fail "traced run reply lacks spans")
    | Error _ -> Alcotest.fail "traced run failed"
  in
  let warm = traced_run req in
  Alcotest.(check int) "warm run: one sim.run span" 1
    (List.length (named "sim.run" warm));
  Alcotest.(check int) "warm run: one req.cache.lookup span" 1
    (List.length (named "req.cache.lookup" warm));
  (* One digest per request: a cold check (a cell the run above did not
     store) carries exactly one fingerprint span, and a warm check of
     the largest kernel allocates about one copy of its payload — the
     key's digest input — rather than copies per hash. *)
  let traced_check ~technique gmt =
    let req =
      Client.traced ~trace_id
        (Client.check_request ~gmt ~technique ~coco:false ~threads:2 ())
    in
    match Client.rpc ~socket req with
    | Ok j -> (
      match (Proto.str_field j "cache", Json.member "spans" j) with
      | Some status, Some arr -> (status, Trace.spans_of_json arr)
      | _ -> Alcotest.fail "traced check reply lacks cache status or spans")
    | Error _ -> Alcotest.fail "traced check failed"
  in
  let status, cold = traced_check ~technique:"dswp" gmt in
  Alcotest.(check string) "check is cold" "miss" status;
  Alcotest.(check int) "cold check: one req.fingerprint span" 1
    (List.length (named "req.fingerprint" cold));
  let mesa = Text.print (workload "177.mesa") in
  ignore (traced_check ~technique:"gremio" mesa);
  let status, warm = traced_check ~technique:"gremio" mesa in
  Alcotest.(check string) "mesa check is warm" "hit" status;
  (match named "serve.check" warm with
  | [ serve ] ->
    let ratio = serve.Obs.alloc_bytes /. float_of_int (String.length mesa) in
    Alcotest.(check bool)
      (Printf.sprintf "warm check allocates %.2fx its payload (< 1.5x)" ratio)
      true (ratio < 1.5)
  | l ->
    Alcotest.failf "warm check: %d serve.check spans" (List.length l));
  (* A warm run of the largest kernel allocates a few copies of its
     payload (the key's digest input, the simulator's memory, the
     rebuilt reference input), not the parsed program and a second
     simulation. *)
  let mesa_run =
    Client.traced ~trace_id
      (Client.run_request ~gmt:mesa ~technique:"gremio" ~coco:false
         ~threads:2 ())
  in
  ignore (traced_run mesa_run);
  (match named "serve.run" (traced_run mesa_run) with
  | [ serve ] ->
    let ratio = serve.Obs.alloc_bytes /. float_of_int (String.length mesa) in
    Alcotest.(check bool)
      (Printf.sprintf "warm run allocates %.2fx its payload (< 4x)" ratio)
      true (ratio < 4.0)
  | l -> Alcotest.failf "warm run: %d serve.run spans" (List.length l));
  (* Stitch: a typed client call inside a collect scope adopts the
     reply's spans next to the local round-trip span, and the resulting
     Chrome trace is well-formed JSON with both halves. *)
  Obs.enable_tracing ();
  Fun.protect ~finally:Obs.reset @@ fun () ->
  let (), collected =
    Obs.collect (fun () ->
        Obs.span ~cat:"client" "remote.run" (fun () ->
            match Client.request ~socket (Client.traced ~trace_id req) with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "traced request failed"))
  in
  let names = List.map (fun (s : Obs.span) -> s.Obs.name) collected in
  Alcotest.(check bool) "stitched: client span" true
    (List.mem "remote.run" names);
  Alcotest.(check bool) "stitched: server stage" true
    (List.mem "req.cache.lookup" names);
  match Json.parse (Obs.trace_json ()) with
  | Ok j ->
    let events =
      match Json.member "traceEvents" j with
      | Some (Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array"
    in
    let has name =
      List.exists
        (fun e -> Json.member "name" e = Some (Json.Str name))
        events
    in
    Alcotest.(check bool) "perfetto: remote.run" true (has "remote.run");
    Alcotest.(check bool) "perfetto: req.fingerprint" true
      (has "req.fingerprint")
  | Error e -> Alcotest.failf "stitched trace is not valid JSON: %s" e

(* The stats/3 frame: schema tag, telemetry registry (counters +
   latency histograms fed by the requests above), and a Prometheus text
   block whose sample lines all carry the gmt_ prefix. *)
let test_stats2_frame () =
  with_server @@ fun srv ->
  let socket = Server.socket srv in
  let gmt = Text.print (workload "ks") in
  let req =
    Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  ignore (request_ok ~socket req);
  ignore (request_ok ~socket req);
  let j =
    match Client.rpc ~socket Client.stats_request with
    | Ok j -> j
    | Error _ -> Alcotest.fail "stats rpc failed"
  in
  Alcotest.(check (option string))
    "schema" (Some "gmtd-stats/3")
    (Proto.str_field j "schema");
  Alcotest.(check bool) "uptime present" true
    (match Json.member "uptime_s" j with
    | Some (Json.Num f) -> f >= 0.0
    | _ -> false);
  Alcotest.(check bool) "pool object with its counters" true
    (match Json.member "pool" j with
    | Some p ->
      List.for_all
        (fun k ->
          match Json.member k p with Some (Json.Num _) -> true | _ -> false)
        [ "workers"; "tasks_run"; "parks" ]
    | None -> false);
  let tele =
    match Json.member "telemetry" j with
    | Some t -> t
    | None -> Alcotest.fail "no telemetry section"
  in
  Alcotest.(check (option string))
    "registry schema" (Some "gmt-telemetry/1")
    (match Json.member "schema" tele with
    | Some (Json.Str s) -> Some s
    | _ -> None);
  let counter name =
    match Option.bind (Json.member "counters" tele) (Json.member name) with
    | Some (Json.Num f) -> int_of_float f
    | _ -> -1
  in
  Alcotest.(check int) "two requests counted" 2 (counter "req.total");
  Alcotest.(check int) "one hit" 1 (counter "req.cache.hits");
  Alcotest.(check int) "one miss" 1 (counter "req.cache.misses");
  (match
     Option.bind (Json.member "histograms" tele) (Json.member "latency.run")
   with
  | Some h ->
    Alcotest.(check (option (float 0.001)))
      "latency.run count" (Some 2.0)
      (match Json.member "count" h with
      | Some (Json.Num f) -> Some f
      | _ -> None);
    List.iter
      (fun q ->
        Alcotest.(check bool) (q ^ " present") true
          (match Json.member q h with Some (Json.Num _) -> true | _ -> false))
      [ "p50"; "p90"; "p99"; "mean" ]
  | None -> Alcotest.fail "no latency.run histogram");
  (* In-process view agrees with the wire view. *)
  (match Registry.find_histogram (Server.registry srv) "latency.run" with
  | Some h ->
    Alcotest.(check int) "registry count" 2 (Gmt_telemetry.Histogram.count h)
  | None -> Alcotest.fail "registry lacks latency.run");
  match Json.member "prometheus" j with
  | Some (Json.Str text) ->
    Alcotest.(check bool) "prometheus non-empty" true (String.length text > 0);
    List.iter
      (fun l ->
        if l <> "" && not (String.length l >= 6 && String.sub l 0 6 = "# TYPE")
        then
          Alcotest.(check bool) ("gmt_ prefix: " ^ l) true
            (String.length l > 4 && String.sub l 0 4 = "gmt_"))
      (String.split_on_char '\n' text)
  | _ -> Alcotest.fail "no prometheus text"

(* -------------------------- warm-run contract ---------------------- *)

(* A run of a cell the daemon already ran to completion is served from
   the cell's reference record. It must reply offline bytes, apply only
   under no less fuel than the record's, make exactly one cache probe
   (so the request counters stay equal to the cache's own), never serve
   another payload from a record, and keep the table within
   mem_capacity. *)
let test_warm_run_contract () =
  let w = workload "ks" in
  let gmt = Text.print w in
  (* ks with one reference-memory value changed: same name, same code,
     a different final image. *)
  let w' =
    match w.W.reference.W.mem with
    | (a, v) :: rest ->
      { w with W.reference = { w.W.reference with mem = (a, v + 1) :: rest } }
    | [] -> Alcotest.fail "ks has no reference memory"
  in
  let image w = fst (snd (V.measure_reference w)) in
  Alcotest.(check bool) "the changed value changes the final image" true
    (image w <> image w');
  let offline ?fuel ?(w = w) technique coco =
    Render.run ?fuel ~technique ~coco ~threads:2 w
  in
  let expect = offline V.Gremio false in
  let capacity = 2 in
  with_server ~mem_capacity:capacity @@ fun srv ->
  let socket = Server.socket srv in
  let run ?fuel ?(gmt = gmt) ?(technique = "gremio") () =
    request_ok ~socket
      (Client.run_request ~gmt ~technique ~coco:false ~threads:2 ?fuel ())
  in
  let check_request ~technique ~coco =
    request_ok ~socket
      (Client.check_request ~gmt ~technique ~coco ~threads:2 ())
  in
  let counter name =
    match Registry.find_counter (Server.registry srv) name with
    | Some c -> Registry.counter_value c
    | None -> Alcotest.failf "no counter %s" name
  in
  let served label ?(status = "hit") ~reused expect o =
    check_outcome label expect o;
    Alcotest.(check string) (label ^ ": cache") status o.Render.cache_status;
    Alcotest.(check int) (label ^ ": reused") reused
      (counter "req.reference.reused");
    Alcotest.(check bool) (label ^ ": table within mem_capacity") true
      (Server.references srv <= capacity)
  in
  let counters_agree label =
    let s = Cache.stats (Server.cache srv) in
    Alcotest.(check int) (label ^ ": hits") s.Cache.hits
      (counter "req.cache.hits");
    Alcotest.(check int) (label ^ ": misses") s.Cache.misses
      (counter "req.cache.misses")
  in
  served "cold" ~status:"miss" ~reused:0 expect (run ());
  Alcotest.(check int) "cold run leaves a record" 1 (Server.references srv);
  served "warm" ~reused:1 expect (run ());
  (* Below the recorded fuel the record does not apply: the reference
     runs again, and times out before the cache is probed. *)
  let short = run ~fuel:10 () in
  served "fuel 10" ~status:"none" ~reused:1 (offline ~fuel:10 V.Gremio false)
    short;
  Alcotest.(check bool) "fuel 10: the reference timed out" true
    (String.starts_with ~prefix:"gmtc: timeout: ks/single" short.Render.err);
  Alcotest.(check int) "fuel 10: exit" Render.exit_timeout short.Render.code;
  let fuel = 2 * Gmt_machine.Sim.default_fuel in
  served "larger fuel" ~reused:2 (offline ~fuel V.Gremio false) (run ~fuel ());
  counters_agree "fuel sequence";
  (* Two checks of other cells fill the 2-entry cache and evict the
     artifact; the record stays, so the run recompiles with one counted
     miss and no second probe. *)
  ignore (check_request ~technique:"dswp" ~coco:false);
  ignore (check_request ~technique:"gremio" ~coco:true);
  Alcotest.(check int) "checks leave no record" 1 (Server.references srv);
  let misses = (Cache.stats (Server.cache srv)).Cache.misses in
  served "evicted artifact" ~status:"miss" ~reused:3 expect (run ());
  Alcotest.(check int) "evicted artifact: one miss" (misses + 1)
    (Cache.stats (Server.cache srv)).Cache.misses;
  counters_agree "evicted artifact";
  (* The changed payload has its own key and record: served cold and
     warm, it must reply the changed program's offline bytes. *)
  let gmt' = Text.print w' in
  let expect' = offline ~w:w' V.Gremio false in
  served "changed, cold" ~status:"miss" ~reused:3 expect' (run ~gmt:gmt' ());
  served "changed, warm" ~reused:4 expect' (run ~gmt:gmt' ());
  served "original, warm" ~reused:5 expect (run ());
  (* A third record evicts the least recently used one. *)
  served "third cell" ~status:"miss" ~reused:5 (offline V.Dswp false)
    (run ~technique:"dswp" ());
  Alcotest.(check int) "table at mem_capacity" capacity
    (Server.references srv);
  served "changed, evicted record" ~status:"miss" ~reused:5 expect'
    (run ~gmt:gmt' ());
  counters_agree "end";
  (* The counter rides the stats/3 frame and its Prometheus text. *)
  match Client.rpc ~socket Client.stats_request with
  | Ok j ->
    Alcotest.(check bool) "stats/3 counts 5 reused references" true
      (Option.bind (Json.member "telemetry" j) (fun t ->
           Option.bind (Json.member "counters" t)
             (Json.member "req.reference.reused"))
      = Some (Json.Num 5.0));
    Alcotest.(check bool) "prometheus counts 5 reused references" true
      (match Json.member "prometheus" j with
      | Some (Json.Str text) ->
        List.mem "gmt_req_reference_reused 5" (String.split_on_char '\n' text)
      | _ -> false)
  | Error _ -> Alcotest.fail "stats rpc failed"

(* A request for fewer than one thread is the client's error: a plain
   malformed-request outcome, answered before any flight starts. *)
let test_threads_zero () =
  with_server @@ fun srv ->
  let socket = Server.socket srv in
  let gmt = Text.print (workload "ks") in
  List.iter
    (fun (op, req) ->
      let o = request_ok ~socket req in
      Alcotest.(check int) (op ^ ": exit") Render.exit_parse o.Render.code;
      Alcotest.(check string) (op ^ ": stderr")
        "gmtc: threads must be positive, got 0\n" o.Render.err;
      Alcotest.(check string) (op ^ ": cache") "none" o.Render.cache_status)
    [
      ( "run",
        Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:0 ()
      );
      ( "check",
        Client.check_request ~gmt ~technique:"gremio" ~coco:false ~threads:0
          () );
    ]

(* --------------------------- request keys -------------------------- *)

(* The single-flight key is derived from the request's one digest
   rather than hashed from its raw fields, so pin what it must keep:
   every field that enters the outcome separates flights, the trace
   fields do not, and the cell key is the key the farm routes by (so
   routing and caching agree). *)
let test_request_keys () =
  let gmt = Text.print (workload "ks") in
  let keys (req : Client.req) =
    match Server.request_keys req.Client.body req.Client.payload with
    | Ok k -> k
    | Error o ->
      Alcotest.failf "request answered before keying: %s" o.Render.err
  in
  let run ?fuel ?(gmt = gmt) ?(technique = "gremio") ?(coco = false)
      ?(threads = 2) () =
    Client.run_request ~gmt ~technique ~coco ~threads ?fuel ()
  in
  let base = run () in
  let flight req = snd (keys req) in
  let flipped =
    let b = Bytes.of_string gmt in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  let sweep ?fuel max_threads =
    Client.sweep_request ~gmt ~max_threads ?fuel ()
  in
  let variants =
    [
      ("base", base);
      ( "op",
        Client.check_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
      );
      ("technique", run ~technique:"dswp" ());
      ("coco", run ~coco:true ());
      ("threads", run ~threads:3 ());
      ("fuel", run ~fuel:1000 ());
      ("other fuel", run ~fuel:1001 ());
      ("one payload byte", run ~gmt:flipped ());
      ("sweep", sweep 4);
      ("sweep max_threads", sweep 3);
      ("sweep fuel", sweep ~fuel:1000 4);
    ]
  in
  let flights = List.map (fun (label, req) -> (label, flight req)) variants in
  List.iter
    (fun (label, f) ->
      List.iter
        (fun (other, g) ->
          if label <> other then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s: distinct flights" label other)
              false (f = g))
        flights)
    flights;
  List.iter
    (fun (label, req) ->
      Alcotest.(check string) (label ^ " ignored") (flight base) (flight req))
    [
      ("trace_id", Client.traced ~trace_id:"0123456789abcdef" base);
      ( "parent_span",
        Client.traced ~parent_span:"elsewhere" ~trace_id:"0123456789abcdef"
          base );
      ("other trace_id", Client.traced ~trace_id:"fedcba9876543210" base);
    ];
  List.iter
    (fun (technique, tname, coco) ->
      let req = run ~technique:tname ~coco () in
      Alcotest.(check (option string))
        (Printf.sprintf "%s%s: cell key = farm routing key" tname
           (if coco then "+coco" else ""))
        (Some
           (Gmt_farm.Farm.compile_key ~technique ~coco ~threads:2
              ~canonical:gmt))
        (fst (keys req)))
    [ (V.Gremio, "gremio", false); (V.Dswp, "dswp", true) ];
  Alcotest.(check (option string)) "a sweep has no cell key" None
    (fst (keys (sweep 4)))

(* ------------------------------ sweep ------------------------------ *)

(* The table's rows as (threads, comm without COCO, comm with COCO). *)
let sweep_rows (o : Render.outcome) =
  List.filter_map
    (fun row ->
      match List.map String.trim (String.split_on_char '|' row) with
      | [ k; base; coco; _ ] -> (
        match (int_of_string_opt k, int_of_string_opt base) with
        | Some k, Some base -> Some (k, base, int_of_string coco)
        | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' o.Render.out)

(* A sweep cell is a run cell: each row's counts are what [V.measure]
   reads off the cell [V.compile] builds at that thread count, and a
   daemon serves the offline outcome byte for byte. *)
let test_sweep_cells () =
  let sweeps =
    List.map
      (fun name ->
        let w = workload name in
        (w, Render.sweep ~max_threads:4 w))
      [ "ks"; "177.mesa" ]
  in
  List.iter
    (fun ((w : W.t), o) ->
      Alcotest.(check int) (w.W.name ^ " exit") 0 o.Render.code;
      let rows = sweep_rows o in
      Alcotest.(check (list int))
        (w.W.name ^ " thread counts") [ 2; 3; 4 ]
        (List.map (fun (k, _, _) -> k) rows);
      List.iter
        (fun (k, base, coco_comm) ->
          let comm coco =
            (V.measure (V.compile ~n_threads:k ~coco V.Gremio w)).V.comm_instrs
          in
          let label = Printf.sprintf "%s@%d" w.W.name k in
          Alcotest.(check int) (label ^ " comm(MTCG)") (comm false) base;
          Alcotest.(check int) (label ^ " comm(+COCO)") (comm true) coco_comm)
        rows)
    sweeps;
  with_server @@ fun srv ->
  List.iter
    (fun ((w : W.t), offline) ->
      let o =
        request_ok ~socket:(Server.socket srv)
          (Client.sweep_request ~gmt:(Text.print w) ~max_threads:4 ())
      in
      check_outcome (w.W.name ^ " served sweep") offline o)
    sweeps

(* A cell's metric keys name its thread count when it is not 2, so the
   two GREMIO cells of a sweep to 3 threads file their simulations under
   two keys, each holding its own cell's cycles. *)
let test_sweep_metric_keys () =
  let w = workload "ks" in
  let at2, at3 =
    Fun.protect ~finally:Obs.reset @@ fun () ->
    Obs.enable_metrics ();
    let o = Render.sweep ~max_threads:3 w in
    Alcotest.(check int) "sweep exit" 0 o.Render.code;
    ( Obs.Metrics.get "sim.ks/gremio.cycles",
      Obs.Metrics.get "sim.ks/gremio@3.cycles" )
  in
  let cycles n_threads =
    (V.measure (V.compile ~n_threads V.Gremio w)).V.cycles
  in
  Alcotest.(check int) "sim.ks/gremio.cycles" (cycles 2) at2;
  Alcotest.(check int) "sim.ks/gremio@3.cycles" (cycles 3) at3

(* ------------------------------ ping ------------------------------- *)

let test_ping () =
  with_server @@ fun srv ->
  (match Client.ping ~socket:(Server.socket srv) with
  | Ok v -> Alcotest.(check string) "version" Proto.version v
  | Error _ -> Alcotest.fail "ping failed");
  match Client.ping ~socket:(fresh_socket ()) with
  | Error `No_daemon -> ()
  | _ -> Alcotest.fail "expected No_daemon on a dead socket"

let tests =
  [
    Alcotest.test_case "concurrent clients byte-identical" `Quick
      test_concurrent_clients;
    Alcotest.test_case "corrupt entry recompiled" `Quick
      test_corrupt_entry_recompiled;
    Alcotest.test_case "busy reply" `Quick test_busy_reply;
    Alcotest.test_case "busy under concurrent load" `Quick
      test_busy_under_load;
    Alcotest.test_case "malformed frame rejected" `Quick test_malformed_frame;
    Alcotest.test_case "inline gmt field ignored" `Quick test_gmt_field_ignored;
    Alcotest.test_case "fuel timeout" `Quick test_fuel_timeout;
    Alcotest.test_case "server fuel cap" `Quick test_fuel_cap;
    Alcotest.test_case "traced request round-trip" `Quick test_traced_request;
    Alcotest.test_case "warm run contract" `Quick test_warm_run_contract;
    Alcotest.test_case "threads 0 rejected" `Quick test_threads_zero;
    Alcotest.test_case "request keys" `Quick test_request_keys;
    Alcotest.test_case "stats/2 frame" `Quick test_stats2_frame;
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "one worker: idle connection does not stall" `Quick
      test_jobs1_idle_connection;
    Alcotest.test_case "sweep cells are run cells, offline and served" `Quick
      test_sweep_cells;
    Alcotest.test_case "sweep metric keys per thread count" `Quick
      test_sweep_metric_keys;
  ]
