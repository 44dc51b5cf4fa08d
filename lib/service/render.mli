(** Report rendering shared by offline [gmtc] and the gmtd server.

    The service contract is that a served response is byte-identical to
    what offline [gmtc] prints for the same request, cached or not. The
    only way to make that hold by construction is for both paths to run
    the {e same} rendering code: [gmtc run]/[check]/[sweep] call these
    functions directly and print the outcome; the server calls them in a
    worker and ships the outcome over the wire.

    Every function returns instead of raising or exiting: deadlocks,
    verification rejections and fuel timeouts become an {!outcome} with
    the corresponding exit code, so a server worker survives any
    request. *)

module V = Gmt_core.Velocity
module Workload = Gmt_workloads.Workload

(** The gmtc exit-code contract (documented in README.md):
    [exit_deadlock] 1 (also generic compile failure), [exit_parse] 2,
    [exit_unknown] 3, [exit_verify] 4, [exit_timeout] 5 (fuel budget
    exhausted mid-simulation), [exit_busy] 6 (server over its request
    bound). *)

val exit_deadlock : int
val exit_parse : int
val exit_unknown : int
val exit_verify : int
val exit_timeout : int
val exit_busy : int

(** ["gremio"] or ["dswp"], spelled as the CLI and the wire spell
    them. *)
val technique_of_name : string -> V.technique option

type outcome = {
  out : string;  (** exactly what offline gmtc prints on stdout *)
  err : string;  (** exactly what offline gmtc prints on stderr *)
  code : int;    (** process exit code *)
  cache_status : string;  (** ["hit"], ["miss"] or ["none"] *)
}

(** [gmtc run]: single-threaded baseline vs one compiled cell, with the
    speedup report. Two simulations, in order: the reference
    ({!V.measure_reference}), then the compiled cell checked against its
    memory. [fuel] bounds each simulation's cycles; exhaustion yields
    {!exit_timeout}, and a reference that exhausts it ends the request
    before the cache is probed ([cache_status] ["none"]). [cache] pairs
    the artifact cache with the cell's key, {!V.fingerprint} of the
    program text: the caller (the server, which receives the text on the
    wire) computes it once, and nothing here prints or hashes the
    program. *)
val run :
  ?cache:Gmt_cache.Cache.t * string ->
  ?fuel:int ->
  ?verify:bool ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  Workload.t ->
  outcome

(** [gmtc check]: translation-validate one cell. A cache hit serves the
    stored verdict; a miss compiles unverified, runs the validator, and
    stores only a clean artifact. [cache] as for {!run}. *)
val check :
  ?cache:Gmt_cache.Cache.t * string ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  Workload.t ->
  outcome

(** [check_text] is {!check} taking the GMT-IR text itself, with the
    key the caller computed over the received bytes: a cache hit never
    parses or re-prints the program — this is the server's warm path. A
    miss parses (a parse error renders as offline [gmtc]'s, with
    {!exit_parse}) and compiles as {!check} does, without a second
    lookup. *)
val check_text :
  ?cache:Gmt_cache.Cache.t * string ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  string ->
  outcome

(** [gmtc sweep]: communication across thread counts [2..max_threads]. *)
val sweep :
  ?jobs:int ->
  ?fuel:int ->
  max_threads:int ->
  Workload.t ->
  outcome
