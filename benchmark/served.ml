(* The daemon workloads, driven through real [gmtc serve] processes:

   - hit-check: one daemon (--jobs nproc) whose cache set-up warms with
     the 44 MT cells; then [check] requests over those cells, every one
     a hit. The service fast path only: decode, fingerprint, cache
     lookup, render, framing.
   - hit-run: the same daemon and warm-up, but [run] requests: a warm
     run skips compilation and is almost all machine-layer work (oracle
     interpreter, MT interpreter, simulator).
   - farm-miss: two --jobs 1 shards with --self/--peers replication,
     driven over loopback TCP through [Farm.request]. Each request is a
     corpus cell whose [workload] line carries a unique seeded suffix, so
     every request is a cold compile + verify + store followed by a
     replication push; nothing is simulated. Clients reach the shards on
     TCP; the shards push replicas to each other on their Unix sockets,
     which needs no port known before start-up.

   Loops are closed: each client waits for its reply before sending
   again. Width 1 and width nproc (client domains) alternate in slices
   of at least a second, the order flipping every round. The daemons
   only ever see the generated GMT-IR text. *)

module V = Gmt_core.Velocity
module Client = Gmt_service.Client
module Render = Gmt_service.Render
module Farm = Gmt_farm.Farm
module Json = Gmt_obs.Json
module Obs = Gmt_obs.Obs
module Workload = Gmt_workloads.Workload

type kind = Hit_check | Hit_run | Farm_miss

let now = Unix.gettimeofday

(* One MT cell as a request. [text] is the kernel's canonical GMT-IR;
   [body] is the same text after the name in its [workload] line, so a
   renamed request is [head ^ name ^ body]. *)
type cell = {
  bench : string;
  cname : string;
  technique : V.technique;
  coco : bool;
  text : string;
  body : string;
}

let head = "gmt-ir v1\nworkload \""

let mt_cells () =
  Gmt_workloads.Suite.all ()
  |> List.concat_map (fun (w : Workload.t) ->
         let bench = w.Workload.name in
         let text = Gmt_frontend.Text.print w in
         let named = head ^ bench ^ "\"\n" in
         if not (String.starts_with ~prefix:named text) then
           failwith (bench ^ ": unexpected canonical text header");
         let skip = String.length head + String.length bench in
         let body = String.sub text skip (String.length text - skip) in
         List.filter_map
           (function
             | V.Single -> None
             | V.Mt (t, coco) as kind ->
               Some
                 {
                   bench;
                   cname = V.cell_name kind;
                   technique = t;
                   coco;
                   text;
                   body;
                 })
           V.matrix_kinds)
  |> Array.of_list

let technique c = String.lowercase_ascii (V.technique_name c.technique)

let check_request c gmt =
  Client.check_request ~gmt ~technique:(technique c) ~coco:c.coco ~threads:2
    ()

let traced id req =
  match id with
  | None -> req
  | Some trace_id -> Client.traced ~parent_span:"service.rpc" ~trace_id req

(* [None] when the reply is right; otherwise why it is wrong. *)
let expect_check ~status ~out (o : Render.outcome) =
  if o.Render.code <> 0 then Some ("exit " ^ string_of_int o.Render.code)
  else if o.Render.cache_status <> status then
    Some ("cache " ^ o.Render.cache_status ^ ", expected " ^ status)
  else if o.Render.out <> out then
    Some ("output " ^ String.escaped o.Render.out)
  else None

(* The ST/MT counts of a [gmtc run] reply, against the golden rows.
   Returns the instructions simulated (ST + MT) when they match. *)
let expect_run c (o : Render.outcome) =
  let line l fmt = Scanf.sscanf_opt l fmt (fun a b -> (a, b)) in
  match String.split_on_char '\n' o.Render.out with
  | title :: st :: mt :: comm :: _ when o.Render.code = 0 -> (
    match
      ( line st " single-threaded : %d instrs %d cycles",
        line mt " multi-threaded : %d instrs %d cycles",
        line comm " communication : %d instrs (%_f%%), %d memory syncs" )
    with
    | Some st, Some mt, Some comm ->
      let s = Golden.find c.bench "single"
      and m = Golden.find c.bench c.cname in
      if not (String.starts_with ~prefix:(c.bench ^ " / ") title) then
        Error ("title " ^ title)
      else if st <> (s.Golden.dyn_instrs, s.Golden.cycles) then
        Error "single-threaded counts"
      else if
        mt <> (m.Golden.dyn_instrs, m.Golden.cycles)
        || comm <> (m.Golden.comm_instrs, m.Golden.mem_syncs)
      then Error "multi-threaded counts"
      else if o.Render.cache_status <> "hit" then Error "cache miss"
      else Ok (fst st + fst mt)
    | _ -> Error ("unparsed reply " ^ String.escaped o.Render.out))
  | _ -> Error ("exit " ^ string_of_int o.Render.code ^ " " ^ o.Render.err)

let failure = function
  | `Busy m -> "busy: " ^ m
  | `Protocol m -> "protocol: " ^ m
  | `No_daemon -> "no daemon"
  | `No_shard -> "no shard"

(* One op: send the client's next cell and check the reply. The
   argument is the trace id of a traced op. Returns [Ok instrs] (the
   instructions the reply says were simulated) or [Error why]. *)
type op = string option -> (int, string) result

(* Each client walks the cells in passes, every pass a fresh seeded
   permutation, so every window serves the cells in equal shares: the
   mix, and with it the throughput, does not hinge on which cells random
   draws happened to favour. A fresh order per pass also varies which
   cells two clients run at the same time; one order per run would make
   that pairing, and so the run's throughput and tail, a property of its
   seed. *)
let cycle rng cells =
  let order = Array.copy cells in
  let n = Array.length order and i = ref (-1) in
  fun () ->
    incr i;
    if !i mod n = 0 then ignore (Sample.shuffle rng order);
    order.(!i mod n)

let of_check = function None -> Ok 0 | Some why -> Error why

(* An op's result from a round trip: [check] judges a reply; a failed
   round trip fails the op. *)
let reply check = function Ok o -> check o | Error e -> Error (failure e)

(* A hit-* [check] request for [c], expecting the golden verdict with
   cache [status]. *)
let check_cell ~socket ~status id c =
  reply
    (fun o ->
      of_check
        (expect_check ~status ~out:(Golden.verdict c.bench c.cname) o))
    (Client.request ~socket (traced id (check_request c c.text)))

(* Numbers the renamed farm requests; one counter for the whole run, so
   no name repeats. *)
let serial = Atomic.make 0

(* [client_ops kind ... rng] is a fresh client: its cell cycle and, on
   the farm, its own router. *)
let client_ops kind ~seed cells daemons ports : Random.State.t -> op =
  match kind with
  | Hit_check ->
    let socket = (List.hd daemons).Proc.socket in
    fun rng ->
      let next = cycle rng cells in
      fun id -> check_cell ~socket ~status:"hit" id (next ())
  | Hit_run ->
    let socket = (List.hd daemons).Proc.socket in
    fun rng ->
      let next = cycle rng cells in
      fun id ->
        let c = next () in
        let req =
          Client.run_request ~gmt:c.text ~technique:(technique c) ~coco:c.coco
            ~threads:2 ()
        in
        reply (expect_run c) (Client.request ~socket (traced id req))
  | Farm_miss ->
    let specs =
      List.map2
        (fun (d : Proc.daemon) p ->
          Printf.sprintf "%s=127.0.0.1:%d" d.Proc.name p)
        daemons ports
    in
    fun rng ->
      let next = cycle rng cells and farm = Farm.of_specs specs in
      fun id ->
        let c = next () in
        let name =
          Printf.sprintf "%s.s%dn%d" c.bench seed
            (Atomic.fetch_and_add serial 1)
        in
        let gmt = head ^ name ^ c.body in
        let key =
          Farm.compile_key ~technique:c.technique ~coco:c.coco ~threads:2
            ~canonical:gmt
        in
        reply
          (fun (o, _shard) ->
            of_check
              (expect_check ~status:"miss"
                 ~out:(Golden.verdict ~renamed:name c.bench c.cname)
                 o))
          (Farm.request farm ~key (traced id (check_request c gmt)))

(* ------------------------------ set-up ----------------------------- *)

let reported = Atomic.make 0

let count (tally : Report.tally) r =
  tally.attempted <- tally.attempted + 1;
  match r with
  | Ok _ -> ()
  | Error why ->
    tally.failed <- tally.failed + 1;
    if Atomic.fetch_and_add reported 1 < 5 then
      Printf.eprintf "request failed: %s\n%!" why

(* Spawns the workload's daemons, waits until they answer, and sends
   every MT cell once, each a checked miss: on hit-* this fills the
   cache, on the farm (under fresh names) it takes the shards through
   their first compiles. Returns the daemons and their TCP ports. *)
let start kind ~seed tally cells =
  let warm send =
    Array.iter
      (fun c ->
        Proc.check_interrupt ();
        count tally (send c))
      cells
  in
  match kind with
  | Hit_check | Hit_run ->
    let d = Proc.spawn ~name:"d0" [ "--jobs"; string_of_int Report.nproc ] in
    ignore (Proc.wait_ready d);
    warm (check_cell ~socket:d.Proc.socket ~status:"miss" None);
    ([ d ], [])
  | Farm_miss ->
    let names = [ "s0"; "s1" ] in
    let peers =
      String.concat "," (List.map (fun n -> n ^ "=" ^ Proc.socket_of n) names)
    in
    let ds =
      List.map
        (fun n ->
          Proc.spawn ~name:n
            [ "--jobs"; "1"; "--listen"; "127.0.0.1:0"; "--self"; n; "--peers";
              peers ])
        names
    in
    let ports =
      List.map (fun d -> Option.get (Proc.wait_ready ~tcp:true d)) ds
    in
    (* One full cycle: every cell once. *)
    let op =
      client_ops kind ~seed cells ds ports (Random.State.make [| seed |])
    in
    warm (fun _ -> op None);
    (ds, ports)

(* ------------------------------ stats ------------------------------ *)

let stat_paths =
  [
    ("req", [ "telemetry"; "counters"; "req.total" ]);
    ("hits", [ "telemetry"; "counters"; "req.cache.hits" ]);
    ("misses", [ "telemetry"; "counters"; "req.cache.misses" ]);
    ("evictions", [ "cache"; "evictions" ]);
    ("parks", [ "pool"; "parks" ]);
    ("steals", [ "pool"; "steals_succeeded" ]);
    ("ingested", [ "telemetry"; "counters"; "farm.replication.ingested" ]);
    ("sf_waits", [ "telemetry"; "counters"; "farm.singleflight.waits" ]);
  ]
  @ List.map
      (fun s -> (s, [ "telemetry"; "histograms"; "stage." ^ s; "sum" ]))
      (Array.to_list Gmt_telemetry.Trace.stage_names)

(* One daemon's stats/2 counters (and stage-histogram sums, µs). *)
let snapshot (d : Proc.daemon) =
  match Client.rpc ~socket:d.Proc.socket Client.stats_request with
  | Error _ -> failwith ("no stats reply from " ^ d.Proc.name)
  | Ok j ->
    List.map
      (fun (k, path) ->
        ( k,
          match
            List.fold_left
              (fun j f -> Option.bind j (Json.member f))
              (Some j) path
          with
          | Some (Json.Num x) -> x
          | _ -> 0. ))
      stat_paths

(* Per-daemon deltas across the window. *)
let deltas before after =
  List.map2
    (fun b a -> List.map2 (fun (k, x) (_, y) -> (k, y -. x)) b a)
    before after

let total ds k = Sample.sum (List.map (List.assoc k) ds)

(* ----------------------------- the load ---------------------------- *)

type level = {
  mutable lat : float list;  (** seconds; a failed op counts as infinite *)
  mutable rates : float list;  (** ops per second of each slice *)
  mutable instrs : int;
}

let level () = { lat = []; rates = []; instrs = 0 }

(* One slice: a closed loop per client, each on its own domain when
   there is more than one, until [until] — but a client stops only at
   the end of a whole cycle over the [cycle] cells, and only after one
   whole cycle, so every slice serves each cell equally often. The
   slice's rate is the sum of the clients' own rates, each client timed
   to its last reply: the client that ends its cycle first idles until
   the slice ends, and that idle tail is not the system's. [spans]
   traces every op. *)
let drive tally lv ~until ~spans ~cycle (clients : op list) =
  let one client op () =
    let out = ref [] and sent = ref 0 in
    let t0 = now () in
    while
      (!sent = 0 || now () < until || !sent mod cycle <> 0)
      && not (Atomic.get Proc.interrupted)
    do
      incr sent;
      let t0 = now () in
      let r, trace =
        match spans with
        | None -> (op None, None)
        | Some sp ->
          let id = Gmt_telemetry.Trace.genid () in
          let r, ss =
            Obs.collect (fun () ->
                Obs.span ~cat:"client" "service.rpc" (fun () -> op (Some id)))
          in
          (r, Some (sp, id, ss))
      in
      let dt = now () -. t0 in
      Option.iter
        (fun (sp, id, ss) -> Spans.add sp ~ops:1 ~req:id ~tid:client ss)
        trace;
      out := (r, dt) :: !out
    done;
    (!out, now () -. t0)
  in
  let results =
    match clients with
    | [ op ] -> [ one 0 op () ]
    | _ ->
      List.mapi (fun i op -> Domain.spawn (one i op)) clients
      |> List.map Domain.join
  in
  let rate (ops, elapsed) =
    let ok = ref 0 in
    List.iter
      (fun (r, dt) ->
        count tally r;
        match r with
        | Ok n ->
          incr ok;
          lv.instrs <- lv.instrs + n;
          lv.lat <- dt :: lv.lat
        | Error _ -> lv.lat <- infinity :: lv.lat)
      ops;
    float_of_int !ok /. elapsed
  in
  lv.rates <- Sample.sum (List.map rate results) :: lv.rates

(* ------------------------------- run ------------------------------- *)

let run kind ~seed ~seconds ~trace =
  let tally = Report.tally () in
  let cells = mt_cells () in
  let cycle = Array.length cells in
  (* [width] clients; [stream] keeps the sets of one run apart. *)
  let clients ops stream width =
    List.init width (fun c -> ops (Random.State.make [| seed; stream; c |]))
  in
  (* Set-up, repeated, keeping the last daemons: spawn until they answer
     plus the cache warm-up (timed), then one unmeasured pass of the
     workload's own requests, after which peak RSS is read. The daemons
     keep memory in proportion to the requests they have served, so a
     reading after a timed window would grow with throughput; after a
     fixed count it does not. The pass has one client: a process that has
     run a second domain may not fork another daemon. *)
  let setup_s = ref [] and rss = ref [] and started = ref None in
  for i = 1 to Report.setups do
    Proc.terminate_all ();
    let t0 = now () in
    let ds, ports = start kind ~seed tally cells in
    setup_s := (now () -. t0) :: !setup_s;
    let ops = client_ops kind ~seed cells ds ports in
    drive tally (level ()) ~until:0. ~spans:None ~cycle (clients ops (-i) 1);
    rss :=
      Sample.sum
        (List.map
           (fun (d : Proc.daemon) ->
             Proc.peak_rss_mb (string_of_int d.Proc.pid))
           ds)
      :: !rss;
    started := Some (ds, ops)
  done;
  let ds, ops = Option.get !started in
  let clients = clients ops in
  let window = if trace then seconds /. 2. else seconds in
  let slice = Float.min 1.0 (window /. 4.) in
  (* Settle: one unmeasured pass per client at full width. *)
  drive tally (level ()) ~until:0. ~spans:None ~cycle (clients 0 Report.nproc);
  let seq = level () and par = level () in
  let seq_clients = clients 1 1 and par_clients = clients 2 Report.nproc in
  let before = List.map snapshot ds in
  let t_end = now () +. window in
  (* Slices until the window ends; at least one of each width. *)
  let k = ref 0 in
  while !k < 2 || now () < t_end do
    Proc.check_interrupt ();
    let lv, cs =
      if Report.seq_turn !k then (seq, seq_clients) else (par, par_clients)
    in
    drive tally lv ~until:(now () +. slice) ~spans:None ~cycle cs;
    incr k
  done;
  Proc.check_interrupt ();
  let d = deltas before (List.map snapshot ds) in
  let per_s lv = Sample.median lv.rates in
  let lat_ms = List.map (fun s -> s *. 1e3) par.lat in
  let e2e =
    [
      ("ops_per_s", Report.value ~n:(List.length par.rates) (per_s par));
      ("seq_ops_per_s", Report.value ~n:(List.length seq.rates) (per_s seq));
      ("p50_ms", Report.percentile lat_ms 50);
      ("p90_ms", Report.percentile lat_ms 90);
      ("setup_s", Report.value ~n:Report.setups (Sample.median !setup_s));
      ("peak_rss_mb", Report.value ~n:Report.setups (Sample.median !rss));
    ]
  in
  let spans = if trace then Some (Spans.create ()) else None in
  let layers =
    match spans with
    | None -> []
    | Some spans ->
      let traced = level () in
      drive tally traced ~until:(now () +. window) ~spans:(Some spans) ~cycle
        (clients 3 Report.nproc);
      Proc.check_interrupt ();
      let n = spans.Spans.ops in
      let req = total d "req" in
      let reqs = List.map (List.assoc "req") d in
      let ratio a b = if b > 0. then a /. b else 0. in
      let stat k v = (k, Report.value ~n:(int_of_float req) v) in
      let finite l = List.filter Float.is_finite l.lat in
      let stages =
        Sample.sum
          (List.map (total d) (Array.to_list Gmt_telemetry.Trace.stage_names))
      in
      let misses = total d "misses" in
      List.map (fun (k, v) -> (k, Report.value ~n v)) (Spans.shares spans)
      @ [
          ("trace.op_ms", Report.value ~n (Spans.op_ms spans));
          ( "trace.overhead_share",
            Report.value ~n
              ((Sample.mean (finite traced) /. Sample.mean (finite par))
              -. 1.) );
          ( "exec.parallel_efficiency",
            Report.value ~n:(List.length par.rates)
              (per_s par /. (float_of_int Report.nproc *. per_s seq)) );
          ("exec.critical_path_share", Report.value 0.);
          stat "service.stages_share"
            (ratio stages (Sample.sum (finite seq @ finite par) *. 1e6));
          stat "cache.hit_share"
            (ratio (total d "hits") (total d "hits" +. misses));
          stat "cache.evictions_per_req" (ratio (total d "evictions") req);
          stat "exec.server_parks_per_req" (ratio (total d "parks") req);
          stat "exec.server_steals_per_req" (ratio (total d "steals") req);
          stat "farm.replicated_share" (ratio (total d "ingested") misses);
          stat "farm.shard_imbalance"
            (ratio (List.fold_left Float.max 0. reqs) (Sample.mean reqs));
          stat "farm.singleflight_waits" (total d "sf_waits");
          ( "machine.sim_minstr_per_s",
            Report.value ~n
              (ratio (float_of_int traced.instrs)
                 (Spans.self_us spans "machine.sim")) );
          ("machine.dyn_instrs", Report.value 0.);
          ("mtcg.comm_instrs", Report.value 0.);
        ]
  in
  { Report.ops = tally; values = e2e @ layers; spans }
