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

(** The artifact-cache key of one compiled cell: digests the canonical
    GMT-IR text ([canonical], normally {!Gmt_frontend.Text.print})
    together with the technique, thread count, COCO flag and the
    {!V.machine_config} rendering under the cache
    {!Gmt_cache.Fingerprint.format_version}. A [run] and a [check] of
    one cell share its key and so its entry. *)
val fingerprint :
  ?n_threads:int -> ?coco:bool -> V.technique -> canonical:string -> string

(** [parse_text ~cache_status text] parses a request's GMT-IR text in
    the [req.parse] stage. A parse error becomes the outcome offline
    [gmtc] gives a broken [.gmt] file: its [file:line:col] message
    (the file named [<request>]) with {!exit_parse} and [cache_status].
    {!run_text}, {!check_text} and the daemon's [sweep] parse through
    it. *)
val parse_text :
  cache_status:string -> string -> (Workload.t, outcome) result

(** {2 The artifact cache}

    This module is the cache's one owner. A {!run_text} or
    {!check_text} given a cache, as the pair of the cache and the cell's
    {!fingerprint}, probes it exactly once, in the [req.cache.lookup]
    stage. A hit skips the whole compile pipeline and re-verification:
    only verified code is stored. A miss compiles in the [req.compile]
    stage, and one [store] builds the {!Gmt_cache.Cache.entry} of every
    miss (the run's, the record-served run's and the check's) from the
    verified cell. *)

(** [gmtc run]: single-threaded baseline vs one compiled cell, with the
    speedup report. Two stages, one simulation each: the reference
    stage simulates the single-threaded original
    ({!V.measure_reference}); after the cell is compiled, the cell stage
    simulates it and checks its final memory against the reference
    image. [fuel] bounds each simulation's cycles; exhaustion yields
    {!exit_timeout}. It has no cache, so [~verify:false] ([gmtc run
    --no-verify]) compiles code that is never looked up or stored. *)
val run :
  ?fuel:int ->
  ?verify:bool ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  Workload.t ->
  outcome

(** A program's reference input, held in a flat form that takes a third
    of the parsed lists' words. Equal inputs are structurally equal, so
    records of one program can share one copy. *)
type input

(** A program's completed reference run, reduced to what a [run] of one
    of its cells reads: the daemon keeps one per cell key, so that a
    repeated [run] neither parses its program nor simulates the
    reference again. It holds no function, train input, memory image,
    multi-threaded result or reply. *)
type reference = {
  name : string;  (** workload name *)
  mem_size : int;
  input : input;
  st_instrs : int;  (** single-threaded dynamic instructions *)
  st_cycles : int;  (** single-threaded cycles *)
  digest : string;
      (** {!V.memory_digest} of the reference's final memory: the
          oracle a record-served cell is checked against *)
  fuel : int;
      (** the fuel the reference completed under, no fuel resolved to
          {!Gmt_machine.Sim.default_fuel} *)
}

(** [applies ?fuel r] — [r] can serve a run under [fuel] (no fuel
    meaning {!Gmt_machine.Sim.default_fuel}): [fuel] is at least the
    fuel [r] completed under, and a simulation that completed under
    some fuel completes identically under any larger one. *)
val applies : ?fuel:int -> reference -> bool

(** [run_text] is {!run} on the GMT-IR text itself — the server's
    path, always verified. [cache] pairs the artifact cache with the
    cell's key, as for {!check_text}. [reference], a record taken from a
    completed run of the same key, is used when it {!applies}: the
    request then probes the cache once and, on a hit, simulates only
    the cell, checking its final memory against [reference.digest]; it
    parses nothing and simulates no reference. On a miss it parses and
    compiles, and stores without a second probe. Otherwise the text is
    parsed and runs as {!run} does (a reference that exhausts [fuel]
    ends the request before the cache is probed, [cache_status]
    ["none"]), and [remember] receives the record of a reference that
    completed. A parse error renders as offline [gmtc]'s, with
    {!exit_parse}. *)
val run_text :
  ?cache:Gmt_cache.Cache.t * string ->
  ?fuel:int ->
  ?reference:reference ->
  ?remember:(reference -> unit) ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  string ->
  outcome

(** [gmtc check]: translation-validate one cell. It compiles
    unverified, runs the validator, and reports the verdict; it has no
    cache. *)
val check :
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  Workload.t ->
  outcome

(** [check_compiled c] is {!check}'s verdict on code compiled by the
    caller, unverified: the same verified and translation validation
    FAILED lines, with {!exit_verify} on a rejection. [gmtc check
    --inject] seeds a miscompile into [c] before handing it here. *)
val check_compiled : V.compiled -> outcome

(** [check_text] is {!check} taking the GMT-IR text itself. [cache]
    pairs the artifact cache with the cell's key, the {!fingerprint} the
    caller computed over the received bytes: a hit serves the stored
    verdict and never parses or re-prints the program — this is the
    server's warm path. A miss parses (a parse error renders as offline
    [gmtc]'s, with {!exit_parse}), compiles as {!check} does, and stores
    only a clean cell, without a second lookup. *)
val check_text :
  ?cache:Gmt_cache.Cache.t * string ->
  technique:V.technique ->
  coco:bool ->
  threads:int ->
  string ->
  outcome

(** [gmtc sweep]: GREMIO's communication with and without COCO at each
    thread count [k] in [2..max_threads]. It runs {!run}'s reference
    stage first, then one {!V.analyze}, then one task per [k] on a pool
    of [jobs] domains: one {!V.partition} into [k] threads feeding both
    of its ±COCO cells. Every cell is compiled and verified as {!run}'s
    is, simulated on the [k]-core machine, and its final memory checked
    against the reference image. [fuel] bounds each simulation's cycles;
    a cell that exhausts it reports [<name>/sweep@<k>] with
    {!exit_timeout}. The table is the same for every [jobs]. *)
val sweep :
  ?jobs:int ->
  ?fuel:int ->
  max_threads:int ->
  Workload.t ->
  outcome
