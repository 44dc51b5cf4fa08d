(** Client side of the gmtd protocol.

    [gmtc remote] resolves the workload {e locally} (so name and parse
    failures exit with the same codes as offline gmtc, daemon or not),
    serializes it to canonical GMT-IR text and ships that — the daemon
    never needs the client's filesystem. [`No_daemon] distinguishes
    "nothing is listening on that path" (the failover signal, and once
    no shard is left the local-fallback case: the caller compiles
    locally through the same {!Render} functions the daemon would have
    used, producing the same bytes, after {!warn_fallback}) from a
    daemon that answered badly ([`Protocol]) or refused ([`Busy]). *)

type error = [ `Busy of string | `No_daemon | `Protocol of string ]

(** {2 Endpoints}

    A socket argument is either a Unix-domain path or a TCP
    [host:port]. The grammar: a string containing no ['/'] whose last
    [':'] is followed by a port number parses as TCP; everything else is
    a path (so relative paths like [./gmtd.sock] still work, and a
    pathological file literally named [host:1] is reachable as
    [./host:1]). *)

type endpoint = Unix_path of string | Tcp of string * int

val endpoint_of_string : string -> endpoint

(** TCP connects run under this deadline (seconds) before the shard is
    declared down. *)
val connect_timeout : float

(** Receive deadline set (SO_RCVTIMEO) on TCP connections: a wedged
    shard surfaces as a ["read timeout"] protocol error, never a hang. *)
val read_deadline : float

(** A framed request: the JSON document plus the GMT-IR program as the
    frame's raw attachment (empty for ping/stats). *)
type req = { body : Gmt_obs.Json.t; payload : string }

(** One framed request/reply exchange, with retry classification:
    connection refused (or TCP connect timeout) is [`No_daemon] — the
    failover / local-fallback signal; a connection lost {e after} the
    request was written (daemon restart, crash) is retried exactly once
    on a fresh connection after a short backoff, and reported as a
    [`Protocol] error if lost again — never a silent second compile.
    [socket] may be a Unix path or [host:port]. The calling process
    ignores SIGPIPE from its first request on, as {!Server.start} does:
    a busy daemon hangs up without reading the request, and the busy
    reply it sent first is read after the write fails with EPIPE. *)
val rpc : socket:string -> req -> (Gmt_obs.Json.t, [> error ]) result

(** {2 Request builders} *)

val run_request :
  gmt:string ->
  technique:string ->
  coco:bool ->
  threads:int ->
  ?fuel:int ->
  unit ->
  req

val check_request :
  gmt:string -> technique:string -> coco:bool -> threads:int -> unit -> req

val sweep_request :
  gmt:string ->
  max_threads:int ->
  ?fuel:int ->
  unit ->
  req

val ping_request : req
val stats_request : req

(** [put_request ~key ~entry ()] — replication intake: [entry] is a
    pre-encoded cache entry ({!Gmt_cache.Cache.encode_entry}), shipped
    as the attachment. The receiving shard ingests it cold
    ({!Gmt_cache.Cache.ingest}); the reply carries
    [("ingested", bool)]. *)
val put_request : key:string -> entry:string -> unit -> req

(** [traced ~trace_id req] tags a compile request so the daemon ships
    its per-stage spans back in the reply; {!request} re-records them
    locally, stitching the two halves into one trace. [parent_span]
    (default ["remote"]) names the client-side span the server's work
    conceptually nests under. *)
val traced : ?parent_span:string -> trace_id:string -> req -> req

(** {2 Typed round trips} *)

(** Send a compile request and decode the reply into the exact outcome
    offline gmtc would have produced: print [out], print [err], exit
    with [code]. *)
val request : socket:string -> req -> (Render.outcome, [> error ]) result

(** Protocol version of the listening daemon. *)
val ping : socket:string -> (string, [> error ]) result

(** The daemon's [gmtd-stats/3] frame. A busy daemon answers [stats]
    with its busy frame like any other request; that, and any other
    [ok: false] frame, is an [Error] classified as for {!ping}. *)
val stats : socket:string -> (Gmt_obs.Json.t, [> error ]) result

(** Record that a remote call is falling back to offline compilation:
    emits a [client.fallback] warning event and returns the one-line
    stderr warning for the driver to print. The outcome bytes
    themselves stay identical to what the daemon would have served. *)
val warn_fallback : socket:string -> unit -> string
