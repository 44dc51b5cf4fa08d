(** The farm client driver: consistent-hash routing with ring failover
    over N gmtd shards.

    Failover fires only on [`No_daemon] (connection refused, connect
    timeout, dead socket file): a shard in that state cannot have seen
    the request, so moving to the next ring node never double-compiles.
    [`Busy] is {e not} failed over — it is the shard shedding load on
    purpose, and the farm honors it by propagating (gmtc exits 6, the
    same contract as the single-daemon path). Lost-connection retries
    happen a layer below, in {!Gmt_service.Client.rpc}. *)

type t

val create : ?cooldown:float -> Router.shard list -> t

(** [of_specs ["a=host:1"; "b=/tmp/b.sock"]] — each spec is
    [NAME=ENDPOINT] (a [NAME] holds no ['/']), or a bare endpoint that
    names itself (placement then depends on the endpoint string; prefer
    stable names). A single bare endpoint is exactly the one-daemon
    client. *)
val of_specs : ?cooldown:float -> string list -> t

val shard_of_spec : string -> Router.shard
val router : t -> Router.t

(** {2 Routing keys} *)

(** run/check route by the artifact-cache fingerprint itself, so a
    key's artifact and its shard coincide. *)
val compile_key :
  technique:Gmt_core.Velocity.technique ->
  coco:bool ->
  threads:int ->
  canonical:string ->
  string

(** Sweeps route by program digest (one sweep touches one fingerprint
    per thread count; all of them warm the owner shard). *)
val sweep_key : canonical:string -> string

type error = [ `Busy of string | `No_shard | `Protocol of string ]

(** Route [req] by [key] through the failover plan. [Ok (outcome,
    shard_name)] identifies the serving shard; [`No_shard] means every
    shard refused a connection. On a ring of several shards a
    [`Protocol] message names the shard that produced it. *)
val request :
  t ->
  key:string ->
  Gmt_service.Client.req ->
  (Gmt_service.Render.outcome * string, [> error ]) result

(** One stats (resp. ping) round per shard, in ring order, no failover:
    the per-shard picture for [gmtc remote stats|ping] and [gmtc top]. *)
val stats :
  t ->
  (Router.shard * (Gmt_obs.Json.t, Gmt_service.Client.error) result) list

val ping :
  t -> (Router.shard * (string, Gmt_service.Client.error) result) list
