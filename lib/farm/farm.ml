(* The farm client driver: route a compile request by its cache
   fingerprint, fail over along the ring, honor busy load-shedding.

   Failover only triggers on [`No_daemon] (refused / unreachable / dead
   socket): that shard cannot have seen the request, so trying the next
   ring node never double-compiles. A [`Busy] reply is the shard
   explicitly shedding load — it is propagated to the caller (exit 6),
   not routed around, because stampeding the rest of the ring with the
   load one shard just refused is how overload spreads. [`Protocol]
   errors (including the client's lost-twice verdict) are likewise
   loud. *)

module Client = Gmt_service.Client
module Render = Gmt_service.Render
module V = Gmt_core.Velocity
module Json = Gmt_obs.Json
module Events = Gmt_telemetry.Events

type t = { router : Router.t }

let create ?cooldown shards = { router = Router.create ?cooldown shards }

(* Bare endpoints name themselves: ring placement then depends on the
   endpoint strings. Stable names (NAME=ENDPOINT) keep placement fixed
   across port changes — the golden tests pin the named layout. A name
   never holds a '/', so a Unix path containing '=' stays a bare
   endpoint. *)
let shard_of_spec spec =
  match String.index_opt spec '=' with
  | Some i when not (String.contains (String.sub spec 0 i) '/') ->
    {
      Router.name = String.sub spec 0 i;
      endpoint = String.sub spec (i + 1) (String.length spec - i - 1);
    }
  | Some _ | None -> { Router.name = spec; endpoint = spec }

let of_specs ?cooldown specs = create ?cooldown (List.map shard_of_spec specs)

let router t = t.router

(* Routing keys: run/check use the artifact cache fingerprint itself, so
   a key's compiled artifact and its routed shard coincide — the whole
   point of consistent placement. A sweep touches one fingerprint per
   thread count; it routes by the program digest so all sweeps of one
   program warm the same shard. *)
let compile_key ~technique ~coco ~threads ~canonical =
  Render.fingerprint ~n_threads:threads ~coco technique ~canonical

let sweep_key ~canonical = Digest.to_hex (Digest.string canonical)

type error = [ `No_shard | `Busy of string | `Protocol of string ]

let request t ~key req =
  let rec go = function
    | [] -> Error `No_shard
    | (shard : Router.shard) :: rest -> (
      match Client.request ~socket:shard.endpoint req with
      | Ok o ->
        Router.mark_up t.router shard.name;
        Ok (o, shard.name)
      | Error `No_daemon ->
        Router.mark_down t.router shard.name;
        Events.emit ~severity:Events.Warn ~kind:"farm.failover"
          [ ("shard", Json.Str shard.name); ("key", Json.Str key) ];
        go rest
      | Error (`Busy msg) -> Error (`Busy msg)
      | Error (`Protocol msg) ->
        (* Name the shard only when there is more than one to blame. *)
        if Router.size t.router = 1 then Error (`Protocol msg)
        else Error (`Protocol (Printf.sprintf "shard %s: %s" shard.name msg)))
  in
  go (Router.plan t.router ~key)

(* Per-shard sweeps (gmtc remote stats|ping, gmtc top): every shard
   answers or reports its error; no failover — the caller wants the
   per-shard picture, not a merged one. *)
let stats t =
  List.map
    (fun (shard : Router.shard) ->
      (shard, Client.stats ~socket:shard.endpoint))
    (Router.shards t.router)

let ping t =
  List.map
    (fun (shard : Router.shard) -> (shard, Client.ping ~socket:shard.endpoint))
    (Router.shards t.router)
