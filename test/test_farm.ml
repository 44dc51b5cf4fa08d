(* The gmt_farm layer: consistent-hash placement is deterministic and
   golden-pinned over the paper's 11-kernel corpus, a shard join moves
   only ~K/N keys and all of them to the newcomer, lookup is independent
   of insertion order (QCheck), the TCP transport survives one-byte
   dribble and mid-reply connection loss (retry exactly once, never a
   silent double compile), concurrent misses on one fingerprint coalesce
   into a single compile, and a killed shard's keys are served warm by
   its ring successor thanks to cache replication, whether the router
   reaches the shards over Unix sockets or TCP. *)

module Ring = Gmt_farm.Ring
module Router = Gmt_farm.Router
module Farm = Gmt_farm.Farm
module Shard = Gmt_farm.Shard
module Server = Gmt_service.Server
module Client = Gmt_service.Client
module Proto = Gmt_service.Proto
module Render = Gmt_service.Render
module Singleflight = Gmt_service.Singleflight
module Cache = Gmt_cache.Cache
module Registry = Gmt_telemetry.Registry
module Histogram = Gmt_telemetry.Histogram
module Json = Gmt_obs.Json
module V = Gmt_core.Velocity
module Text = Gmt_frontend.Text
module Gen = Gmt_frontend.Gen
module Suite = Gmt_workloads.Suite

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gmt-farm-test-%d-%d.sock" (Unix.getpid ())
       !socket_counter)

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

(* ---------------------- golden ring placement ---------------------- *)

(* Every benchmark of the corpus, under the four technique cells the
   service tests exercise, keyed by the artifact-cache fingerprint the
   farm routes by. Pinning the full table means any change to the hash,
   the vnode count, or the fingerprint shows up as an explicit diff
   here — placement is part of the wire contract (it decides which
   shard's cache holds which artifact). *)
let corpus_cells () =
  let cells =
    [
      ("gremio", V.Gremio, false);
      ("gremio+coco", V.Gremio, true);
      ("dswp", V.Dswp, false);
      ("dswp+coco", V.Dswp, true);
    ]
  in
  List.concat_map
    (fun name ->
      let canonical = Text.print (Suite.find name) in
      List.map
        (fun (cell, technique, coco) ->
          ( name ^ "/" ^ cell,
            Render.fingerprint ~n_threads:2 ~coco technique ~canonical ))
        cells)
    (List.sort compare (Suite.names ()))

let golden_placement =
  [
    ("177.mesa/gremio", "shard0");
    ("177.mesa/gremio+coco", "shard3");
    ("177.mesa/dswp", "shard3");
    ("177.mesa/dswp+coco", "shard1");
    ("181.mcf/gremio", "shard3");
    ("181.mcf/gremio+coco", "shard0");
    ("181.mcf/dswp", "shard0");
    ("181.mcf/dswp+coco", "shard0");
    ("183.equake/gremio", "shard0");
    ("183.equake/gremio+coco", "shard2");
    ("183.equake/dswp", "shard3");
    ("183.equake/dswp+coco", "shard0");
    ("188.ammp/gremio", "shard1");
    ("188.ammp/gremio+coco", "shard1");
    ("188.ammp/dswp", "shard2");
    ("188.ammp/dswp+coco", "shard1");
    ("300.twolf/gremio", "shard3");
    ("300.twolf/gremio+coco", "shard2");
    ("300.twolf/dswp", "shard2");
    ("300.twolf/dswp+coco", "shard0");
    ("435.gromacs/gremio", "shard1");
    ("435.gromacs/gremio+coco", "shard3");
    ("435.gromacs/dswp", "shard3");
    ("435.gromacs/dswp+coco", "shard0");
    ("458.sjeng/gremio", "shard1");
    ("458.sjeng/gremio+coco", "shard3");
    ("458.sjeng/dswp", "shard3");
    ("458.sjeng/dswp+coco", "shard0");
    ("adpcmdec/gremio", "shard3");
    ("adpcmdec/gremio+coco", "shard1");
    ("adpcmdec/dswp", "shard1");
    ("adpcmdec/dswp+coco", "shard0");
    ("adpcmenc/gremio", "shard3");
    ("adpcmenc/gremio+coco", "shard1");
    ("adpcmenc/dswp", "shard0");
    ("adpcmenc/dswp+coco", "shard0");
    ("ks/gremio", "shard3");
    ("ks/gremio+coco", "shard0");
    ("ks/dswp", "shard2");
    ("ks/dswp+coco", "shard0");
    ("mpeg2enc/gremio", "shard3");
    ("mpeg2enc/gremio+coco", "shard3");
    ("mpeg2enc/dswp", "shard2");
    ("mpeg2enc/dswp+coco", "shard0");
  ]

let test_golden_placement () =
  let shards = [ "shard0"; "shard1"; "shard2"; "shard3" ] in
  let ring = Ring.create shards in
  let actual =
    List.map
      (fun (label, key) -> (label, Option.get (Ring.lookup ring key)))
      (corpus_cells ())
  in
  if actual <> golden_placement then
    Alcotest.failf "placement drifted; actual table:\n%s"
      (String.concat "\n"
         (List.map
            (fun (l, s) -> Printf.sprintf "    (%S, %S);" l s)
            actual));
  (* Sanity on the same table: the corpus spreads over every shard. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " owns some corpus keys") true
        (List.exists (fun (_, s') -> s = s') actual))
    shards

(* -------------------------- rebalance bound ------------------------ *)

let test_rebalance_bound () =
  let k = 200 in
  let keys = List.init k (Printf.sprintf "key-%d") in
  let before = Ring.create [ "shard0"; "shard1"; "shard2"; "shard3" ] in
  (* Deliberately scrambled insertion order: placement must not care. *)
  let after =
    Ring.create [ "shard2"; "shard4"; "shard0"; "shard3"; "shard1" ]
  in
  let moved =
    List.filter (fun key -> Ring.lookup before key <> Ring.lookup after key) keys
  in
  List.iter
    (fun key ->
      Alcotest.(check (option string))
        ("moved key lands on the newcomer: " ^ key)
        (Some "shard4") (Ring.lookup after key))
    moved;
  let n_moved = List.length moved in
  Alcotest.(check bool) "the newcomer takes some keys" true (n_moved > 0);
  (* Ideal is K/(N+1) = 40; with 64 vnodes allow 2x slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded churn: %d moved <= 80" n_moved)
    true
    (n_moved <= 2 * k / 5)

(* ------------------ insertion-order independence ------------------- *)

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_range 0 25))
      (int_range 1 6))

let arbitrary_ring_case =
  QCheck.make
    ~print:(fun (names, key) ->
      Printf.sprintf "names=[%s] key=%S" (String.concat ";" names) key)
    QCheck.Gen.(pair (list_size (int_range 1 8) gen_name) gen_name)

let prop_ring_order_independent =
  QCheck.Test.make ~count:300
    ~name:"ring placement ignores insertion order and duplicates"
    arbitrary_ring_case
    (fun (names, key) ->
      let a = Ring.create names in
      let b = Ring.create (List.rev names) in
      let c = Ring.create (names @ names) in
      Ring.shards a = Ring.shards b
      && Ring.shards a = Ring.shards c
      && Ring.lookup a key = Ring.lookup b key
      && Ring.lookup a key = Ring.lookup c key
      && Ring.successors a key (Ring.size a)
         = Ring.successors b key (Ring.size b))

(* --------------------------- ring basics --------------------------- *)

let test_ring_basics () =
  Alcotest.(check bool) "empty ring is empty" true (Ring.is_empty (Ring.create []));
  Alcotest.(check (option string)) "empty lookup" None
    (Ring.lookup (Ring.create []) "k");
  let ring = Ring.create [ "a"; "b"; "c" ] in
  Alcotest.(check int) "size" 3 (Ring.size ring);
  let succ = Ring.successors ring "some-key" 3 in
  Alcotest.(check int) "successors are distinct" 3
    (List.length (List.sort_uniq compare succ));
  Alcotest.(check (option string))
    "owner heads the successor walk" (Ring.lookup ring "some-key")
    (match succ with s :: _ -> Some s | [] -> None);
  (* One shard: everything maps there, the walk has length one. *)
  let solo = Ring.create [ "only" ] in
  Alcotest.(check (option string)) "solo owner" (Some "only")
    (Ring.lookup solo "anything");
  Alcotest.(check (list string)) "solo successors" [ "only" ]
    (Ring.successors solo "anything" 5)

(* ------------------------- router health --------------------------- *)

let test_router_health () =
  let shards =
    List.map
      (fun n -> { Router.name = n; endpoint = "/tmp/" ^ n ^ ".sock" })
      [ "a"; "b"; "c" ]
  in
  let r = Router.create ~cooldown:0.05 shards in
  let key = "some-key" in
  let plan0 = Router.plan r ~key in
  Alcotest.(check int) "plan covers every shard" 3 (List.length plan0);
  let owner = (Option.get (Router.owner r ~key)).Router.name in
  Alcotest.(check string) "plan heads with the owner" owner
    (List.hd plan0).Router.name;
  (* Marking the owner down demotes it to the tail — never removes it. *)
  Router.mark_down r owner;
  Alcotest.(check bool) "owner unhealthy" false (Router.healthy r owner);
  let plan1 = Router.plan r ~key in
  Alcotest.(check int) "demoted plan still covers every shard" 3
    (List.length plan1);
  Alcotest.(check bool) "owner demoted off the head" true
    ((List.hd plan1).Router.name <> owner);
  Alcotest.(check string) "owner at the tail" owner
    (List.nth plan1 2).Router.name;
  (* Ring order of the healthy shards is preserved. *)
  Alcotest.(check (list string))
    "healthy prefix keeps ring order"
    (List.filter (fun n -> n <> owner) (List.map (fun s -> s.Router.name) plan0))
    (List.map (fun s -> s.Router.name) (List.filteri (fun i _ -> i < 2) plan1));
  (* The cooldown expires on its own; the owner is probed again. *)
  Unix.sleepf 0.08;
  Alcotest.(check bool) "cooldown expired" true (Router.healthy r owner);
  Alcotest.(check string) "owner back at the head" owner
    (List.hd (Router.plan r ~key)).Router.name;
  (* mark_up clears a fresh down immediately. *)
  Router.mark_down r owner;
  Router.mark_up r owner;
  Alcotest.(check bool) "mark_up restores" true (Router.healthy r owner)

(* ----------------------- endpoint grammar -------------------------- *)

let test_endpoint_grammar () =
  let tcp h p = Client.Tcp (h, p) and path s = Client.Unix_path s in
  List.iter
    (fun (s, expect) ->
      let got = Client.endpoint_of_string s in
      Alcotest.(check bool)
        (Printf.sprintf "endpoint %S" s)
        true (got = expect))
    [
      ("127.0.0.1:7070", tcp "127.0.0.1" 7070);
      ("localhost:1", tcp "localhost" 1);
      ("[::1]:7070", tcp "[::1]" 7070);
      ("/tmp/gmtd.sock", path "/tmp/gmtd.sock");
      ("./host:1", path "./host:1");
      ("host:0", path "host:0");
      ("host:99999", path "host:99999");
      ("host:", path "host:");
      ("plain-name", path "plain-name");
    ]

(* ------------------- one-byte-at-a-time frames --------------------- *)

(* A TCP peer is free to deliver a frame one byte per segment; read_exact
   must reassemble it. The frame bytes are captured from write_frame over
   a socketpair, then dribbled byte-by-byte over a real loopback TCP
   connection. *)
let test_frame_dribble () =
  let doc =
    Json.Obj
      [ ("op", Json.Str "run"); ("technique", Json.Str "dswp") ]
  in
  let payload = "func \"k\" { }" in
  (* Capture the encoded frame. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Proto.write_frame a ~payload doc;
  Unix.close a;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec drain () =
    match Unix.read b chunk 0 256 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close b;
  let frame = Buffer.contents buf in
  Alcotest.(check bool) "frame is non-trivial" true (String.length frame > 20);
  (* Dribble it over loopback TCP. *)
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no TCP port"
  in
  let writer =
    Domain.spawn (fun () ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        String.iter
          (fun ch ->
            ignore (Unix.write_substring fd (String.make 1 ch) 0 1);
            Unix.sleepf 0.0005)
          frame;
        Unix.close fd)
  in
  let fd, _ = Unix.accept lfd in
  (match Proto.read_frame fd with
  | Ok (j, p) ->
    Alcotest.(check (option string)) "dribbled op survives" (Some "run")
      (Proto.str_field j "op");
    Alcotest.(check string) "dribbled payload survives" payload p
  | Error `Eof -> Alcotest.fail "dribbled frame read as EOF"
  | Error (`Malformed m) -> Alcotest.failf "dribbled frame malformed: %s" m);
  Domain.join writer;
  Unix.close fd;
  Unix.close lfd

(* --------------------- retry classification ----------------------- *)

(* A scripted daemon impostor: one callback per accepted connection.
   Returns [f path] and the number of connections the listener served,
   counted only after its domain has been joined — the client may see
   the listener hang up before the listener has recorded the
   connection. *)
let with_fake_listener behaviors f =
  let path = fresh_socket () in
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let served = Atomic.make 0 in
  let dom =
    Domain.spawn (fun () ->
        List.iter
          (fun behave ->
            let fd, _ = Unix.accept lfd in
            (try behave fd with _ -> ());
            (try Unix.close fd with _ -> ());
            Atomic.incr served)
          behaviors)
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Domain.join dom;
        Unix.close lfd;
        try Sys.remove path with _ -> ())
      (fun () -> f path)
  in
  (r, Atomic.get served)

let read_then_hang_up fd = ignore (Proto.read_frame fd)

let read_then_pong fd =
  ignore (Proto.read_frame fd);
  Proto.write_frame fd
    (Json.Obj [ ("ok", Json.Bool true); ("version", Json.Str Proto.version) ])

(* Mid-reply EOF: the daemon dies after reading the request. The client
   must retry exactly once on a fresh connection — and succeed when the
   restarted daemon answers. *)
let test_retry_once_on_lost_connection () =
  let (), served =
    with_fake_listener [ read_then_hang_up; read_then_pong ] @@ fun path ->
    match Client.ping ~socket:path with
    | Ok v -> Alcotest.(check string) "retried ping answers" Proto.version v
    | Error `No_daemon -> Alcotest.fail "EOF misclassified as No_daemon"
    | Error (`Busy m) -> Alcotest.failf "unexpected busy: %s" m
    | Error (`Protocol m) -> Alcotest.failf "retry did not recover: %s" m
  in
  Alcotest.(check int) "exactly two connections" 2 served

(* Lost twice: the retry is not a loop. The second EOF surfaces as a
   protocol error and no third connection is attempted. *)
let test_lost_twice_gives_up () =
  let (), served =
    with_fake_listener [ read_then_hang_up; read_then_hang_up ] @@ fun path ->
    match Client.ping ~socket:path with
    | Error (`Protocol m) ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the double loss (%s)" m)
        true
        (String.length m >= 5)
    | Ok _ -> Alcotest.fail "expected a protocol error after two losses"
    | Error `No_daemon -> Alcotest.fail "double loss misclassified as No_daemon"
    | Error (`Busy m) -> Alcotest.failf "unexpected busy: %s" m
  in
  Alcotest.(check int) "exactly two connections, no third" 2 served

(* Connection refused (a bound-then-closed TCP port) is No_daemon — the
   failover / local-fallback signal, distinct from the retry path. *)
let test_refused_is_no_daemon () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close lfd;
  match Client.ping ~socket:(Printf.sprintf "127.0.0.1:%d" port) with
  | Error `No_daemon -> ()
  | Ok _ -> Alcotest.fail "expected No_daemon on a closed port"
  | Error _ -> Alcotest.fail "refused TCP connect must be No_daemon"

(* ------------------------ TCP round trip --------------------------- *)

let test_tcp_round_trip () =
  let w = Suite.find "ks" in
  let offline =
    Render.run ~technique:V.Gremio ~coco:false ~threads:2 w
  in
  let cfg =
    {
      (Server.default_config ~socket:(fresh_socket ())) with
      Server.tcp = Some ("127.0.0.1", 0);
      jobs = 2;
    }
  in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port =
    match Server.tcp_port srv with
    | Some p -> p
    | None -> Alcotest.fail "server bound no TCP port"
  in
  Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
  let socket = Printf.sprintf "127.0.0.1:%d" port in
  (match Client.ping ~socket with
  | Ok v -> Alcotest.(check string) "tcp ping" Proto.version v
  | Error _ -> Alcotest.fail "tcp ping failed");
  let gmt = Text.print w in
  let req =
    Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  let cold = request_ok ~socket req in
  check_outcome "tcp cold" offline cold;
  let warm = request_ok ~socket req in
  check_outcome "tcp warm" offline warm;
  Alcotest.(check string) "tcp warm is a hit" "hit" warm.Render.cache_status;
  (* The Unix socket serves the same daemon: a hit on either transport. *)
  let via_unix = request_ok ~socket:(Server.socket srv) req in
  check_outcome "unix view of tcp-warmed cache" offline via_unix;
  Alcotest.(check string) "shared cache across transports" "hit"
    via_unix.Render.cache_status

(* ---------------------- single-flight: unit ------------------------ *)

(* M domains race one key. Every domain bumps [entered] immediately
   before calling run, and the leader's body spins until all M have —
   then sleeps past the few instructions between a straggler's bump and
   its blocking in run. Deterministically: one leader, M-1 joiners. *)
let test_singleflight_unit () =
  let sf = Singleflight.create () in
  let m = 6 in
  let entered = Atomic.make 0 in
  let doms =
    List.init m (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            Singleflight.run sf "the-key" (fun () ->
                while Atomic.get entered < m do
                  Domain.cpu_relax ()
                done;
                Unix.sleepf 0.05;
                42)))
  in
  let results = List.map Domain.join doms in
  List.iter
    (fun (v, _) -> Alcotest.(check int) "shared value" 42 v)
    results;
  let leads =
    List.length (List.filter (fun (_, r) -> r = `Led) results)
  in
  Alcotest.(check int) "exactly one leader" 1 leads;
  Alcotest.(check int) "everyone else joined" (m - 1) (m - leads);
  (* The flight is unpublished: a later run starts fresh and leads. *)
  let v, role = Singleflight.run sf "the-key" (fun () -> 7) in
  Alcotest.(check int) "fresh flight value" 7 v;
  Alcotest.(check bool) "fresh flight leads" true (role = `Led)

(* A leader's exception reaches the leader and every joined waiter. *)
let test_singleflight_exception () =
  let sf = Singleflight.create () in
  let m = 3 in
  let entered = Atomic.make 0 in
  let doms =
    List.init m (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            match
              Singleflight.run sf "boom" (fun () ->
                  while Atomic.get entered < m do
                    Domain.cpu_relax ()
                  done;
                  Unix.sleepf 0.05;
                  failwith "compile exploded")
            with
            | _ -> `No_exn
            | exception Failure msg -> `Exn msg))
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "exception propagated" true
        (r = `Exn "compile exploded"))
    (List.map Domain.join doms);
  (* The poisoned flight is gone; the key works again. *)
  let v, _ = Singleflight.run sf "boom" (fun () -> 1) in
  Alcotest.(check int) "key usable after exception" 1 v

(* --------------------- single-flight: served ----------------------- *)

(* A synthetic straight-line program big enough that its compile takes
   long enough for every concurrent client to pile onto the flight. *)
let flood_workload () =
  Gen.workload ~name:"flood"
    (List.init 400 (fun i ->
         Gen.Arith
           ( i mod Array.length Gen.ops,
             i mod Gen.n_pool,
             (i + 1) mod Gen.n_pool,
             (i + 2) mod Gen.n_pool )))

let counter_value reg name =
  match Registry.find_counter reg name with
  | Some c -> Registry.counter_value c
  | None -> 0

(* M concurrent clients, one cold fingerprint: exactly one compile runs
   (one singleflight lead, one compile stage span, one cache store) and
   all M replies are byte-identical. *)
let test_server_coalescing () =
  let m = 5 in
  let gmt = Text.print (flood_workload ()) in
  let cfg =
    {
      (Server.default_config ~socket:(fresh_socket ())) with
      Server.jobs = m;
    }
  in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let socket = Server.socket srv in
  let req =
    Client.check_request ~gmt ~technique:"dswp" ~coco:true ~threads:4 ()
  in
  let entered = Atomic.make 0 in
  let doms =
    List.init m (fun _ ->
        Domain.spawn (fun () ->
            (* Barrier: all M requests hit the daemon together. *)
            Atomic.incr entered;
            while Atomic.get entered < m do
              Domain.cpu_relax ()
            done;
            request_ok ~socket req))
  in
  let replies = List.map Domain.join doms in
  (match replies with
  | first :: rest ->
    Alcotest.(check int) "flood compiles cleanly" 0 first.Render.code;
    List.iteri
      (fun i o -> check_outcome (Printf.sprintf "reply %d" (i + 1)) first o)
      rest
  | [] -> assert false);
  let reg = Server.registry srv in
  Alcotest.(check int) "one singleflight lead" 1
    (counter_value reg "farm.singleflight.leads");
  Alcotest.(check int) "m-1 singleflight waits" (m - 1)
    (counter_value reg "farm.singleflight.waits");
  (match Registry.find_histogram reg "stage.req.compile" with
  | Some h -> Alcotest.(check int) "exactly one compile span" 1 (Histogram.count h)
  | None -> Alcotest.fail "no compile stage histogram");
  let s = Cache.stats (Server.cache srv) in
  Alcotest.(check int) "one store" 1 s.Cache.stores;
  (* A straggler after the flight is a plain cache hit. *)
  let warm = request_ok ~socket req in
  Alcotest.(check string) "post-flight request hits" "hit"
    warm.Render.cache_status;
  Alcotest.(check int) "no second lead" 1
    (counter_value reg "farm.singleflight.leads")

(* -------------------- replication cache intake --------------------- *)

let test_ingest_semantics () =
  let mk name =
    {
      Cache.mtp = Gmt_ir.Mtprog.make ~name ~threads:[||] ~n_queues:0;
      comm_sites = 0;
      verified = true;
      w_name = name;
    }
  in
  let c = Cache.create ~mem_capacity:4 () in
  (* Two owned entries... *)
  Cache.store c "own1" (mk "own1");
  Cache.store c "own2" (mk "own2");
  (* ...and replicas fill the headroom. *)
  Alcotest.(check bool) "replica ingested" true (Cache.ingest c "rep1" (mk "rep1"));
  Alcotest.(check bool) "second replica ingested" true
    (Cache.ingest c "rep2" (mk "rep2"));
  Alcotest.(check bool) "replica findable" true (Cache.find c "rep1" <> None);
  (* Ingest refuses keys already present (idempotent intake). *)
  Alcotest.(check bool) "re-ingest refused" false
    (Cache.ingest c "rep1" (mk "rep1"));
  Alcotest.(check bool) "ingest of an owned key refused" false
    (Cache.ingest c "own1" (mk "own1"));
  (* Replica pressure beyond capacity never evicts owned entries:
     replicas tick below every owned entry, so the LRU eats them first. *)
  ignore (Cache.ingest c "rep3" (mk "rep3"));
  Alcotest.(check bool) "owned entry 1 survives" true
    (Cache.find c "own1" <> None);
  Alcotest.(check bool) "owned entry 2 survives" true
    (Cache.find c "own2" <> None);
  (* Ingest must not fire the on_store hook — a push cannot cascade. *)
  let fired = ref 0 in
  Cache.set_on_store c (Some (fun _ _ -> incr fired));
  ignore (Cache.ingest c "rep4" (mk "rep4"));
  Alcotest.(check int) "no hook on ingest" 0 !fired;
  Cache.store c "own3" (mk "own3");
  Alcotest.(check int) "hook still fires on store" 1 !fired;
  (* The wire codec round-trips an entry bit-exactly. *)
  let e = mk "codec" in
  match Cache.decode_entry (Cache.encode_entry e) with
  | Ok e' -> Alcotest.(check bool) "codec round-trip" true (e = e')
  | Error m -> Alcotest.failf "codec round-trip failed: %s" m

(* ------------------ farm failover + replication -------------------- *)

(* The tentpole, end to end: two shards, a compile routed to its ring
   owner, the artifact replicated to the successor, the owner killed —
   and the same request served warm by the survivor, byte-identical.
   The router reaches the shards over [transport]: their Unix sockets,
   or TCP listeners on ephemeral loopback ports. Replication pushes ride
   the Unix sockets either way, as their paths are known before the
   ports are. *)
let test_farm_failover_serves_replica transport () =
  let w = Suite.find "ks" in
  let gmt = Text.print w in
  let offline =
    Render.run ~technique:V.Gremio ~coco:false ~threads:2 w
  in
  let sock_a = fresh_socket () and sock_b = fresh_socket () in
  let peers = [ ("a", sock_a); ("b", sock_b) ] in
  let tcp =
    match transport with `Unix -> None | `Tcp -> Some ("127.0.0.1", 0)
  in
  let shard self socket =
    Shard.start
      {
        Shard.server =
          { (Server.default_config ~socket) with Server.jobs = 2; tcp };
        self;
        peers;
      }
  in
  let sa = shard "a" sock_a and sb = shard "b" sock_b in
  let stopped = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (name, s) ->
          if not (List.mem name !stopped) then Shard.stop s)
        [ ("a", sa); ("b", sb) ])
  @@ fun () ->
  let endpoint s socket =
    match (transport, Server.tcp_port (Shard.server s)) with
    | `Unix, _ -> socket
    | `Tcp, Some port -> Printf.sprintf "127.0.0.1:%d" port
    | `Tcp, None -> Alcotest.fail "shard has no TCP listener"
  in
  let farm =
    Farm.create ~cooldown:0.2
      [
        { Router.name = "a"; endpoint = endpoint sa sock_a };
        { Router.name = "b"; endpoint = endpoint sb sock_b };
      ]
  in
  let key =
    Farm.compile_key ~technique:V.Gremio ~coco:false ~threads:2
      ~canonical:gmt
  in
  let owner = (Option.get (Router.owner (Farm.router farm) ~key)).Router.name in
  let req =
    Client.run_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  (* Cold: routed to the ring owner, byte-identical to offline. *)
  (match Farm.request farm ~key req with
  | Ok (o, served_by) ->
    check_outcome "routed cold" offline o;
    Alcotest.(check string) "served by the ring owner" owner served_by
  | Error _ -> Alcotest.fail "cold farm request failed");
  (* Wait for the replication push to land on the successor. *)
  let owner_shard, survivor_shard, survivor_name =
    if owner = "a" then (sa, sb, "b") else (sb, sa, "a")
  in
  let survivor_cache = Server.cache (Shard.server survivor_shard) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Cache.find survivor_cache key = None
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "artifact replicated to the successor" true
    (Cache.find survivor_cache key <> None);
  Alcotest.(check int) "successor counted the ingest" 1
    (counter_value
       (Server.registry (Shard.server survivor_shard))
       "farm.replication.ingested");
  (* Kill the owner; the same request fails over and is served WARM
     from the replica — the whole point of the push. *)
  Shard.stop owner_shard;
  stopped := [ owner ];
  (match Farm.request farm ~key req with
  | Ok (o, served_by) ->
    check_outcome "failover reply" offline o;
    Alcotest.(check string) "served by the survivor" survivor_name served_by;
    Alcotest.(check string) "served from the replica, warm" "hit"
      o.Render.cache_status
  | Error _ -> Alcotest.fail "failover request failed");
  (* The dead shard is marked down: the next plan leads with the
     survivor, so the farm pays no reconnect latency while it cools. *)
  Alcotest.(check bool) "owner marked down" false
    (Router.healthy (Farm.router farm) owner)

(* Every shard down: `No_shard, not a hang and not a protocol error. *)
let test_farm_no_shard () =
  let farm =
    Farm.create
      [
        { Router.name = "a"; endpoint = fresh_socket () };
        { Router.name = "b"; endpoint = fresh_socket () };
      ]
  in
  match
    Farm.request farm ~key:"k"
      (Client.check_request ~gmt:"x" ~technique:"dswp" ~coco:false ~threads:2
         ())
  with
  | Error `No_shard -> ()
  | Ok _ -> Alcotest.fail "request served with no shard up"
  | Error (`Busy _) -> Alcotest.fail "expected No_shard, got Busy"
  | Error (`Protocol m) -> Alcotest.failf "expected No_shard, got: %s" m

let tests =
  [
    Alcotest.test_case "golden corpus placement" `Quick test_golden_placement;
    Alcotest.test_case "rebalance bound on shard join" `Quick
      test_rebalance_bound;
    QCheck_alcotest.to_alcotest prop_ring_order_independent;
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    Alcotest.test_case "router health demotion" `Quick test_router_health;
    Alcotest.test_case "endpoint grammar" `Quick test_endpoint_grammar;
    Alcotest.test_case "one-byte-at-a-time frame" `Quick test_frame_dribble;
    Alcotest.test_case "retry once on lost connection" `Quick
      test_retry_once_on_lost_connection;
    Alcotest.test_case "lost twice gives up" `Quick test_lost_twice_gives_up;
    Alcotest.test_case "refused TCP connect is No_daemon" `Quick
      test_refused_is_no_daemon;
    Alcotest.test_case "TCP round trip" `Quick test_tcp_round_trip;
    Alcotest.test_case "singleflight unit" `Quick test_singleflight_unit;
    Alcotest.test_case "singleflight exception" `Quick
      test_singleflight_exception;
    Alcotest.test_case "server coalesces concurrent misses" `Quick
      test_server_coalescing;
    Alcotest.test_case "replication ingest semantics" `Quick
      test_ingest_semantics;
    Alcotest.test_case "failover serves the replica" `Quick
      (test_farm_failover_serves_replica `Unix);
    Alcotest.test_case "failover serves the replica over TCP" `Quick
      (test_farm_failover_serves_replica `Tcp);
    Alcotest.test_case "no shard reachable" `Quick test_farm_no_shard;
  ]
