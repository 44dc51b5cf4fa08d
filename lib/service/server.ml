module Json = Gmt_obs.Json
module Obs = Gmt_obs.Obs
module Cache = Gmt_cache.Cache
module Pool = Gmt_parallel.Pool
module V = Gmt_core.Velocity
module Registry = Gmt_telemetry.Registry
module Histogram = Gmt_telemetry.Histogram
module Rolling = Gmt_telemetry.Rolling
module Events = Gmt_telemetry.Events
module Trace = Gmt_telemetry.Trace

type config = {
  socket : string;
  tcp : (string * int) option;
  jobs : int;
  cache_dir : string option;
  mem_capacity : int;
  queue_bound : int;
  fuel_cap : int option;
}

let default_config ~socket =
  {
    socket;
    tcp = None;
    jobs = Pool.default_jobs ();
    cache_dir = None;
    mem_capacity = 128;
    queue_bound = 64;
    fuel_cap = None;
  }

(* Every instrument the request path touches, resolved once at startup —
   the hot path never does a registry (table) lookup. Histogram units
   are microseconds. *)
type instruments = {
  reg : Registry.t;
  c_requests : Registry.counter;
  c_errors : Registry.counter;
  c_busy : Registry.counter;
  c_timeouts : Registry.counter;
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_reused : Registry.counter;
  c_traced : Registry.counter;
  c_sf_leads : Registry.counter;
  c_sf_waits : Registry.counter;
  c_repl_ingested : Registry.counter;
  g_in_flight : Registry.gauge;
  (* Pool counters mirrored as gauges: refreshed from [Pool.stats] on
     every stats request, so the Prometheus exposition and the telemetry
     JSON carry them without the pool ever touching the registry. *)
  g_pool_tasks : Registry.gauge;
  g_pool_parks : Registry.gauge;
  w_hits : Rolling.t;
  w_misses : Rolling.t;
  w_busy : Rolling.t;
  w_timeouts : Rolling.t;
  w_in_flight_peak : Rolling.t;
  op_hists : (string * Histogram.t) array;
  stage_hists : (string * Histogram.t) array;
}

let make_instruments () =
  let reg = Registry.create () in
  {
    reg;
    c_requests = Registry.counter reg "req.total";
    c_errors = Registry.counter reg "req.errors";
    c_busy = Registry.counter reg "req.busy";
    c_timeouts = Registry.counter reg "req.fuel_timeouts";
    c_hits = Registry.counter reg "req.cache.hits";
    c_misses = Registry.counter reg "req.cache.misses";
    c_reused = Registry.counter reg "req.reference.reused";
    c_traced = Registry.counter reg "req.traced";
    c_sf_leads = Registry.counter reg "farm.singleflight.leads";
    c_sf_waits = Registry.counter reg "farm.singleflight.waits";
    c_repl_ingested = Registry.counter reg "farm.replication.ingested";
    g_in_flight = Registry.gauge reg "in_flight";
    g_pool_tasks = Registry.gauge reg "pool.tasks_run";
    g_pool_parks = Registry.gauge reg "pool.parks";
    w_hits = Registry.window reg Rolling.Sum "win.cache.hits";
    w_misses = Registry.window reg Rolling.Sum "win.cache.misses";
    w_busy = Registry.window reg Rolling.Sum "win.busy";
    w_timeouts = Registry.window reg Rolling.Sum "win.fuel_timeouts";
    w_in_flight_peak = Registry.window reg Rolling.Peak "win.in_flight.peak";
    op_hists =
      Array.map
        (fun op -> (op, Registry.histogram reg ("latency." ^ op)))
        [| "run"; "check"; "sweep" |];
    stage_hists =
      Array.map
        (fun s -> (s, Registry.histogram reg ("stage." ^ s)))
        Trace.stage_names;
  }

let assoc_find key arr =
  let n = Array.length arr in
  let rec go i =
    if i >= n then None
    else
      let k, v = arr.(i) in
      if String.equal k key then Some v else go (i + 1)
  in
  go 0

(* The reference records of completed runs, by cell key: at most
   [capacity] of them, the least recently used dropped first, under one
   mutex like the artifact cache's. A record is small — no image, no
   program — and cells of one program share one copy of its reference
   input. *)
type references = {
  lock : Mutex.t;
  table : (string, Render.reference * int ref) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let references_create capacity =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity = max 1 capacity;
    clock = 0;
  }

let with_lock refs f =
  Mutex.lock refs.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock refs.lock) f

let tick refs =
  refs.clock <- refs.clock + 1;
  refs.clock

let references_find refs key =
  with_lock refs @@ fun () ->
  Option.map
    (fun (r, last) ->
      last := tick refs;
      r)
    (Hashtbl.find_opt refs.table key)

(* Insert [r] under [key], reusing the input of a record of the same
   program, then drop least-recently-used records beyond capacity (a
   linear scan, as the capacity is small). *)
let references_add refs key (r : Render.reference) =
  with_lock refs @@ fun () ->
  let same (o : Render.reference) =
    String.equal o.Render.name r.Render.name && o.Render.input = r.Render.input
  in
  let r =
    match Seq.find (fun (o, _) -> same o) (Hashtbl.to_seq_values refs.table)
    with
    | Some (o, _) -> { r with Render.input = o.Render.input }
    | None -> r
  in
  Hashtbl.replace refs.table key (r, ref (tick refs));
  while Hashtbl.length refs.table > refs.capacity do
    let victim =
      Hashtbl.fold
        (fun k (_, last) acc ->
          match acc with
          | Some (_, t) when t <= !last -> acc
          | _ -> Some (k, !last))
        refs.table None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove refs.table k) victim
  done

type t = {
  cfg : config;
  cache : Cache.t;
  references : references;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  tcp_fd : Unix.file_descr option;
  flight : Render.outcome Singleflight.t;
  stop_flag : bool Atomic.t;
  in_flight : int Atomic.t;
  ins : instruments;
  started : float;
  mutable accept_dom : unit Domain.t option;
}

let cache t = t.cache

let references t =
  with_lock t.references (fun () -> Hashtbl.length t.references.table)

let socket t = t.cfg.socket
let registry t = t.ins.reg

(* The bound TCP port — the bind-time one unless the config asked for an
   ephemeral port (0), in which case the kernel's pick. *)
let tcp_port t =
  match t.tcp_fd with
  | None -> None
  | Some fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> Some p
    | _ -> None)

(* ----------------------------- replies ----------------------------- *)

let outcome_json (o : Render.outcome) =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("out", Json.Str o.Render.out);
      ("err", Json.Str o.Render.err);
      ("exit", Json.Num (float_of_int o.Render.code));
      ("cache", Json.Str o.Render.cache_status);
    ]

let error_json msg = Json.Obj [ ("ok", Json.Bool false); ("err", Json.Str msg) ]

let busy_json =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("busy", Json.Bool true);
      ( "err",
        Json.Str "gmtd: busy: request bound reached, retry or raise --jobs\n"
      );
    ]

(* ----------------------------- requests ---------------------------- *)

let outcome_err ~code msg =
  { Render.out = ""; err = msg; code; cache_status = "none" }

let effective_fuel cfg req_fuel =
  match (req_fuel, cfg.fuel_cap) with
  | Some f, Some cap -> Some (min f cap)
  | Some f, None -> Some f
  | None, cap -> cap

(* A compile request, decoded once. The compile ops carry the canonical
   GMT-IR text as the frame payload, the only way a program arrives;
   fields the server does not read (a stale client's "kernel" or "gmt")
   are ignored like any other unknown field. *)
type cell = { technique : V.technique; coco : bool; threads : int }
type job = Run of cell | Check of cell | Sweep of int  (* max_threads *)
type request = { job : job; fuel : int option (* as requested *) }

(* A request that lacks a program, names an unknown technique or asks
   for fewer than one thread is answered here, before any flight
   starts — with the exit offline gmtc gives for a malformed input. *)
let decode j payload =
  Obs.span ~cat:"stage" "req.decode" @@ fun () ->
  let fuel = Proto.int_field j "fuel" in
  let cell make =
    let name = Option.value (Proto.str_field j "technique") ~default:"" in
    match Render.technique_of_name name with
    | None ->
      Error
        (outcome_err ~code:Render.exit_unknown
           (Printf.sprintf "gmtc: unknown technique %S (known: gremio, dswp)\n"
              name))
    | Some technique ->
      let coco = Option.value (Proto.bool_field j "coco") ~default:false in
      let threads = Option.value (Proto.int_field j "threads") ~default:2 in
      if threads < 1 then
        Error
          (outcome_err ~code:Render.exit_parse
             (Printf.sprintf "gmtc: threads must be positive, got %d\n"
                threads))
      else Ok { job = make { technique; coco; threads }; fuel }
  in
  if payload = "" then
    Error (outcome_err ~code:Render.exit_parse "gmtc: request lacks GMT-IR\n")
  else
    match Proto.str_field j "op" with
    | Some "run" -> cell (fun c -> Run c)
    | Some "check" -> cell (fun c -> Check c)
    | Some "sweep" ->
      let max_threads =
        Option.value (Proto.int_field j "max_threads") ~default:4
      in
      Ok { job = Sweep max_threads; fuel }
    | _ -> invalid_arg "Server.decode: not a compile request"

(* The request's one digest over its payload, and the single-flight key
   derived from it. For a run/check the digest is the cell's
   artifact-cache key, which already covers the technique, COCO flag,
   thread count and program text; the flight key adds the op and the
   requested fuel, the rest of what enters the outcome. A sweep has no
   cell: its flight key is a plain payload digest plus max_threads and
   fuel. Deliberately NOT the trace id, so traced and untraced clients
   coalesce (each reply still carries its own trace id; waiters just
   ship no server-side stage spans past this point). *)
let keys { job; fuel } payload =
  Obs.span ~cat:"stage" "req.fingerprint" @@ fun () ->
  let fuel = match fuel with None -> "-" | Some f -> string_of_int f in
  let cell op c =
    let key =
      Render.fingerprint ~n_threads:c.threads ~coco:c.coco c.technique
        ~canonical:payload
    in
    (key, String.concat " " [ op; fuel; key ])
  in
  match job with
  | Run c -> cell "run" c
  | Check c -> cell "check" c
  | Sweep max_threads ->
    let digest = Digest.to_hex (Digest.string payload) in
    let flight =
      String.concat " " [ "sweep"; fuel; string_of_int max_threads; digest ]
    in
    (digest, flight)

let request_keys j payload =
  Result.map
    (fun r ->
      let key, flight = keys r payload in
      match r.job with
      | Sweep _ -> (None, flight)
      | Run _ | Check _ -> (Some key, flight))
    (decode j payload)

(* Render a decoded request under its cell [key]. [check] defers parsing
   to {!Render.check_text} so a warm request never pays for it. A [run]
   whose cell has a record that applies is served from it: one cache
   probe and one simulation, no parse. Any other [run], and every
   [sweep], parses and simulates in full; a [run] that completes its
   reference leaves a record behind. A parse failure means a foreign
   client — it gets the same message and exit offline gmtc would give
   for a broken [.gmt] file. *)
let serve t { job; fuel } key payload =
  let fuel = effective_fuel t.cfg fuel in
  match job with
  | Sweep max_threads -> (
    match Render.parse_text ~cache_status:"none" payload with
    | Error o -> o
    | Ok w -> Render.sweep ~jobs:1 ?fuel ~max_threads w)
  | Check c ->
    Render.check_text ~cache:(t.cache, key) ~technique:c.technique
      ~coco:c.coco ~threads:c.threads payload
  | Run c ->
    let reference =
      match references_find t.references key with
      | Some r when Render.applies ?fuel r ->
        Registry.incr t.ins.c_reused;
        Some r
      | _ -> None
    in
    Render.run_text ~cache:(t.cache, key) ?fuel ?reference
      ~remember:(references_add t.references key)
      ~technique:c.technique ~coco:c.coco ~threads:c.threads payload

let stats_json t =
  let s = Cache.stats t.cache in
  let ps = Pool.stats t.pool in
  let ins = t.ins in
  Registry.set_gauge ins.g_pool_tasks ps.Pool.tasks_run;
  Registry.set_gauge ins.g_pool_parks ps.Pool.parks;
  let now = Unix.gettimeofday () in
  let n name v = (name, Json.Num (float_of_int v)) in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("version", Json.Str Proto.version);
      ("schema", Json.Str "gmtd-stats/3");
      n "jobs" t.cfg.jobs;
      n "in_flight" (Atomic.get t.in_flight);
      ("uptime_s", Json.Num (now -. t.started));
      ( "cache",
        Json.Obj
          [
            n "hits" s.Cache.hits;
            n "misses" s.Cache.misses;
            n "stores" s.Cache.stores;
            n "evictions" s.Cache.evictions;
            n "corrupt" s.Cache.corrupt;
          ] );
      ( "pool",
        Json.Obj
          [
            n "workers" ps.Pool.workers;
            n "tasks_run" ps.Pool.tasks_run;
            n "parks" ps.Pool.parks;
          ] );
      ("telemetry", Registry.json ~now ins.reg);
      ("prometheus", Json.Str (Registry.prometheus ~now ins.reg));
      ("events", Json.Arr (List.map (fun l -> Json.Str l) (Events.recent ())));
    ]

(* Post-compile accounting: one histogram record per request and per
   collected stage span, plus hit/miss/timeout counters and windows.
   Everything here is lock-or-atomic on pre-resolved instruments. *)
let account ins ~name ~t0 ~now (o : Render.outcome) spans =
  Registry.incr ins.c_requests;
  (match assoc_find name ins.op_hists with
  | Some h -> Histogram.record h (int_of_float ((now -. t0) *. 1e6))
  | None -> ());
  List.iter
    (fun (s : Obs.span) ->
      match assoc_find s.Obs.name ins.stage_hists with
      | Some h -> Histogram.record h (int_of_float s.Obs.dur_us)
      | None -> ())
    spans;
  (match o.Render.cache_status with
  | "hit" ->
    Registry.incr ins.c_hits;
    Rolling.add ins.w_hits ~now 1
  | "miss" ->
    Registry.incr ins.c_misses;
    Rolling.add ins.w_misses ~now 1
  | _ -> ());
  if o.Render.code = Render.exit_timeout then begin
    Registry.incr ins.c_timeouts;
    Rolling.add ins.w_timeouts ~now 1;
    Events.emit ~severity:Events.Warn ~kind:"server.fuel_timeout"
      [ ("op", Json.Str name); ("err", Json.Str o.Render.err) ]
  end;
  if o.Render.code <> 0 then Registry.incr ins.c_errors

let handle_request t j payload =
  match Proto.str_field j "op" with
  | Some "ping" ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("version", Json.Str Proto.version);
        ("jobs", Json.Num (float_of_int t.cfg.jobs));
      ]
  | Some "stats" -> stats_json t
  | Some "put" -> (
    (* Replication intake: a peer shard pushing a just-compiled entry.
       The attachment is a self-checksummed encoded entry; anything that
       fails to decode is refused (and the pusher's problem). Ingest is
       cold and silent — no hook, no hit/miss accounting — so pushes can
       never cascade or distort the serving stats. *)
    match Proto.str_field j "key" with
    | None -> error_json "gmtd: put lacks a \"key\" field"
    | Some key -> (
      if payload = "" then error_json "gmtd: put lacks an entry attachment"
      else
        match Cache.decode_entry payload with
        | Error reason -> error_json ("gmtd: put rejected: " ^ reason)
        | Ok e ->
          let ingested = Cache.ingest t.cache key e in
          if ingested then Registry.incr t.ins.c_repl_ingested;
          Json.Obj [ ("ok", Json.Bool true); ("ingested", Json.Bool ingested) ]
      ))
  | Some (("run" | "check" | "sweep") as name) ->
    let trace_id = Proto.str_field j "trace_id" in
    let t0 = Unix.gettimeofday () in
    let ins = t.ins in
    Registry.set_gauge ins.g_in_flight (Atomic.get t.in_flight);
    Rolling.add ins.w_in_flight_peak ~now:t0 (Atomic.get t.in_flight);
    if trace_id <> None then Registry.incr ins.c_traced;
    let serve_args =
      match trace_id with
      | Some id -> [ ("trace_id", Obs.S id) ]
      | None -> []
    in
    (* Single-flight: concurrent requests on one key run the compile
       once. Every request decodes and keys itself; past that, the
       leader's inner stage spans complete on its own domain (so only
       the leader feeds the lookup/compile/simulate histograms) and a
       waiter's span tree holds just its serve.* wait — its reply is
       byte-identical to the leader's. *)
    let compiled () =
      match decode j payload with
      | Error o -> (o, `Led)
      | Ok r -> (
        let key, flight = keys r payload in
        Singleflight.run t.flight flight (fun () -> serve t r key payload))
    in
    (* Collect the request's span tree, which feeds the stage histograms
       and, for a traced client, the reply. Only [Render.sweep] can fan
       out, and [serve] calls it with [~jobs:1], so every inner span
       completes on this domain and lands in the collector. *)
    let ((o, role), reply), spans =
      Obs.collect (fun () ->
          let res =
            Obs.span ~cat:"service" ~args:serve_args ("serve." ^ name)
              (fun () -> compiled ())
          in
          let reply =
            Obs.span ~cat:"stage" "req.encode" (fun () ->
                outcome_json (fst res))
          in
          (res, reply))
    in
    let now = Unix.gettimeofday () in
    (* The lead/wait split is a coalescing metric, so it counts only
       coalescing-relevant flights: a lead that was served from the
       cache is an ordinary hit (nothing was deduplicated) and must not
       inflate the counters. What remains makes
       [waits / (leads + waits)] exactly the share of duplicate
       concurrent misses collapsed into an already-running compile. *)
    (match role with
    | `Led ->
      if o.Render.cache_status = "miss" then Registry.incr ins.c_sf_leads
    | `Joined -> Registry.incr ins.c_sf_waits);
    (* A waiter shares the leader's outcome verbatim, so its cache_status
       reflects the leader's cache probe, not one of its own — counting
       it would log N misses for one compile and drift from
       [Cache.stats]. The wait itself is already counted above. *)
    let o_acct =
      match role with
      | `Joined -> { o with Render.cache_status = "none" }
      | `Led -> o
    in
    account ins ~name ~t0 ~now o_acct spans;
    (match (trace_id, reply) with
    | Some id, Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ("trace_id", Json.Str id);
            ("spans", Trace.spans_to_json spans);
          ])
    | _ -> reply)
  | Some op -> error_json (Printf.sprintf "gmtd: unknown op %S" op)
  | None -> error_json "gmtd: request lacks an \"op\" field"

(* --------------------------- connections --------------------------- *)

let send fd j = try Proto.write_frame fd j with Unix.Unix_error _ -> ()

(* One connection may carry any number of requests; the first malformed
   frame is answered with an error and ends the connection (framing is
   lost, so resynchronizing is not possible). *)
let handle_conn t fd =
  let rec loop () =
    match Proto.read_frame fd with
    | Error `Eof -> ()
    | Error (`Malformed msg) ->
      Events.emit ~severity:Events.Warn ~kind:"server.malformed"
        [ ("err", Json.Str msg) ];
      send fd (error_json ("gmtd: " ^ msg))
    | Ok (j, payload) ->
      let reply =
        try handle_request t j payload
        with e ->
          let msg = Printexc.to_string e in
          Events.emit ~severity:Events.Error ~kind:"server.internal_error"
            [ ("err", Json.Str msg) ];
          error_json ("gmtd: internal error: " ^ msg)
      in
      send fd reply;
      loop ()
  in
  loop ()

(* --------------------------- accept loop --------------------------- *)

(* One ready listener: accept, admit or shed, dispatch. Identical for
   the Unix-domain and TCP listeners — the protocol upward never cares
   which transport a connection arrived on. *)
let accept_one t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    if Atomic.get t.stop_flag then (try Unix.close fd with _ -> ())
    else if Atomic.fetch_and_add t.in_flight 1 >= t.cfg.queue_bound then begin
      (* Over the bound: an explicit busy reply, never a hang. *)
      Atomic.decr t.in_flight;
      Registry.incr t.ins.c_busy;
      Rolling.add t.ins.w_busy ~now:(Unix.gettimeofday ()) 1;
      Events.emit ~severity:Events.Warn ~kind:"server.busy"
        [
          ("in_flight", Json.Num (float_of_int (Atomic.get t.in_flight)));
          ("queue_bound", Json.Num (float_of_int t.cfg.queue_bound));
        ];
      send fd busy_json;
      try Unix.close fd with _ -> ()
    end
    else
      ignore
        (Pool.submit t.pool (fun () ->
             Fun.protect
               ~finally:(fun () ->
                 (try Unix.close fd with _ -> ());
                 Atomic.decr t.in_flight;
                 Registry.set_gauge t.ins.g_in_flight (Atomic.get t.in_flight))
               (fun () -> handle_conn t fd)))

let accept_loop t =
  let listeners =
    t.listen_fd :: (match t.tcp_fd with Some fd -> [ fd ] | None -> [])
  in
  let rec go () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select listeners [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ -> List.iter (accept_one t) ready);
      go ()
    end
  in
  go ();
  List.iter (fun fd -> try Unix.close fd with _ -> ()) listeners;
  try Unix.unlink t.cfg.socket with _ -> ()

(* ---------------------------- lifecycle ---------------------------- *)

let start cfg =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Latency over memory: every request churns frame-sized (hundreds of
     KB) short-lived blocks while the live heap — suite, pool, artifact
     cache — stays small, so the default pacer finishes a full major
     cycle every couple of requests and its stop-the-world phases
     dominate warm (cache-hit) latency. A high space overhead makes
     major cycles rare; the LRU bounds how far the live set can grow. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 800 };
  let cache = Cache.create ~mem_capacity:cfg.mem_capacity ?dir:cfg.cache_dir ()
  in
  let references = references_create cfg.mem_capacity in
  (* One worker per job, none on the accept domain: a handler blocks in
     read_frame on a slow client and on the single-flight condvar, so an
     idle connection holds a worker, never the accept loop that sheds
     load past [queue_bound]. *)
  let pool = Pool.create ~jobs:(max 1 cfg.jobs) () in
  (* A stale socket file from a crashed daemon would make bind fail;
     replace it. A live daemon on the same path loses its socket — the
     operator picked the path, so last-started wins. *)
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  (* The TCP listener (the farm transport) rides alongside the Unix
     socket; port 0 asks the kernel for an ephemeral port, read back
     through [tcp_port]. *)
  let tcp_fd =
    match cfg.tcp with
    | None -> None
    | Some (host, port) ->
      let addr =
        match
          Unix.getaddrinfo host (string_of_int port)
            [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
        with
        | ai :: _ -> ai.Unix.ai_addr
        | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      in
      let fd =
        Unix.socket ~cloexec:true
          (Unix.domain_of_sockaddr addr)
          Unix.SOCK_STREAM 0
      in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd addr;
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with _ -> ());
         (try Unix.close listen_fd with _ -> ());
         raise e);
      Some fd
  in
  let t =
    {
      cfg;
      cache;
      references;
      pool;
      listen_fd;
      tcp_fd;
      flight = Singleflight.create ();
      stop_flag = Atomic.make false;
      in_flight = Atomic.make 0;
      ins = make_instruments ();
      started = Unix.gettimeofday ();
      accept_dom = None;
    }
  in
  Events.emit ~kind:"server.start"
    [
      ("socket", Json.Str cfg.socket);
      ( "listen",
        match cfg.tcp with
        | None -> Json.Null
        | Some (h, _) -> (
          match tcp_port t with
          | Some p -> Json.Str (Printf.sprintf "%s:%d" h p)
          | None -> Json.Null) );
      ("jobs", Json.Num (float_of_int cfg.jobs));
    ];
  t.accept_dom <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let request_stop t = Atomic.set t.stop_flag true

let join t =
  (match t.accept_dom with
  | Some d ->
    Events.emit ~kind:"server.drain"
      [ ("in_flight", Json.Num (float_of_int (Atomic.get t.in_flight))) ];
    Domain.join d;
    t.accept_dom <- None
  | None -> ());
  Pool.shutdown t.pool;
  Events.emit ~kind:"server.stop" []

let stop t =
  request_stop t;
  join t
