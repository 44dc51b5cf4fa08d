(* One farm shard: a {!Gmt_service.Server} plus the cache-warming
   replication pusher.

   Replication is asynchronous and best-effort. The cache's [on_store]
   hook (fired after a compile-served miss stores its artifact) enqueues
   the entry; a dedicated pusher domain encodes it and ships one [put]
   to the key's ring successor. The serving request path never blocks on
   a peer: the hook is an enqueue under a mutex, nothing more. The
   successor ingests the entry {e cold} (below its own LRU traffic) and
   without firing its own hook — so a push can displace only other
   replicas and can never cascade around the ring.

   Consistency: entries are content-addressed (the fingerprint covers
   program, technique, and machine config) and compilation is
   deterministic, so a replica can never disagree with a locally
   compiled artifact — replication can only ever turn a future miss into
   a hit. Losing a push loses warmth, not correctness. *)

module Cache = Gmt_cache.Cache
module Client = Gmt_service.Client
module Server = Gmt_service.Server
module Registry = Gmt_telemetry.Registry
module Events = Gmt_telemetry.Events
module Json = Gmt_obs.Json

type config = {
  server : Server.config;
  self : string;  (** this shard's ring name *)
  peers : (string * string) list;
      (** (name, endpoint) of every farm member, this one included *)
}

(* Bounded queue: replication is warmth, not correctness, so under
   sustained compile pressure dropping a push beats growing without
   bound. *)
let queue_bound = 1024

type pusher = {
  ring : Ring.t;
  endpoints : (string, string) Hashtbl.t;
  self : string;
  q : (string * Cache.entry) Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable stopping : bool;
  c_pushed : Registry.counter;
  c_dropped : Registry.counter;
  mutable dom : unit Domain.t option;
}

type t = { server : Server.t; pusher : pusher option }

let server t = t.server

(* First ring successor of [key] that is not this shard. *)
let target p key =
  List.find_opt
    (fun s -> not (String.equal s p.self))
    (Ring.successors p.ring key 2)

let push p key entry =
  match target p key with
  | None -> ()
  | Some peer -> (
    match Hashtbl.find_opt p.endpoints peer with
    | None -> ()
    | Some ep -> (
      let encoded = Cache.encode_entry entry in
      match Client.rpc ~socket:ep (Client.put_request ~key ~entry:encoded ())
      with
      | Ok _ -> Registry.incr p.c_pushed
      | Error _ ->
        Events.emit ~severity:Events.Warn ~kind:"farm.replication.failed"
          [ ("peer", Json.Str peer); ("key", Json.Str key) ]))

let pusher_loop p =
  let rec go () =
    Mutex.lock p.m;
    while Queue.is_empty p.q && not p.stopping do
      Condition.wait p.c p.m
    done;
    match Queue.take_opt p.q with
    | Some (key, entry) ->
      Mutex.unlock p.m;
      (try push p key entry with _ -> ());
      go ()
    | None ->
      (* Stopping with a drained queue. *)
      Mutex.unlock p.m
  in
  go ()

let enqueue p key entry =
  Mutex.lock p.m;
  if p.stopping then Mutex.unlock p.m
  else if Queue.length p.q >= queue_bound then begin
    Mutex.unlock p.m;
    Registry.incr p.c_dropped;
    Events.emit ~severity:Events.Warn ~kind:"farm.replication.dropped"
      [ ("key", Json.Str key) ]
  end
  else begin
    Queue.add (key, entry) p.q;
    Condition.signal p.c;
    Mutex.unlock p.m
  end

let start (cfg : config) =
  let server = Server.start cfg.server in
  let pusher =
    if List.length cfg.peers < 2 then None
    else begin
      let endpoints = Hashtbl.create 8 in
      List.iter (fun (n, ep) -> Hashtbl.replace endpoints n ep) cfg.peers;
      let reg = Server.registry server in
      let p =
        {
          ring = Ring.create (List.map fst cfg.peers);
          endpoints;
          self = cfg.self;
          q = Queue.create ();
          m = Mutex.create ();
          c = Condition.create ();
          stopping = false;
          c_pushed = Registry.counter reg "farm.replication.pushed";
          c_dropped = Registry.counter reg "farm.replication.dropped";
          dom = None;
        }
      in
      p.dom <- Some (Domain.spawn (fun () -> pusher_loop p));
      Cache.set_on_store (Server.cache server) (Some (enqueue p));
      Some p
    end
  in
  { server; pusher }

let request_stop t = Server.request_stop t.server

let join t =
  Server.join t.server;
  match t.pusher with
  | None -> ()
  | Some p ->
    (* The server is drained: no request can store (and so enqueue)
       anymore. Let the pusher finish the queue, then stop it. *)
    Cache.set_on_store (Server.cache t.server) None;
    Mutex.lock p.m;
    p.stopping <- true;
    Condition.broadcast p.c;
    Mutex.unlock p.m;
    (match p.dom with Some d -> Domain.join d | None -> ());
    p.dom <- None

let stop t =
  request_stop t;
  join t
