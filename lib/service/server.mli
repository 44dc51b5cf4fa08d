(** The gmtd daemon: a concurrent compile service over a Unix-domain
    socket.

    One domain accepts connections; each accepted connection becomes a
    task on a {!Gmt_parallel.Pool} of [jobs] workers, so up to [jobs]
    requests compile concurrently while excess connections queue. When
    more than [queue_bound] connections are in flight the newcomer gets
    one explicit busy frame and is closed — the service degrades loudly,
    never by hanging.

    All workers share one {!Gmt_cache.Cache.t}, so a kernel compiled for
    one client is a cache hit for every later client (and for the
    daemon's own re-verification: cached artifacts carry their
    translation-validation verdict). Concurrent compile requests with
    one flight key run the compile once and share its outcome
    ({!Singleflight}), and every request is counted and timed in the
    daemon's stats plane ({!registry}).

    Responses are rendered by the same {!Render} functions offline
    [gmtc] prints through, which makes served bytes identical to offline
    bytes by construction.

    Shutdown is graceful: {!request_stop} flips an atomic flag; the
    accept loop notices within its 200 ms poll interval, stops
    accepting, closes and unlinks the socket; {!join} then drains the
    worker pool, so every accepted request is still answered. *)

type config = {
  socket : string;  (** path of the Unix-domain socket *)
  tcp : (string * int) option;
      (** additional TCP listener (the farm transport), e.g.
          [Some ("127.0.0.1", 7070)]; port [0] binds an ephemeral port,
          read back with {!tcp_port} *)
  jobs : int;  (** worker pool size (min 1) *)
  cache_dir : string option;  (** on-disk artifact store, [None] = memory only *)
  mem_capacity : int;  (** in-memory LRU bound *)
  queue_bound : int;  (** max in-flight connections before busy replies *)
  fuel_cap : int option;
      (** server-side ceiling on per-request simulation fuel; a request's
          own fuel is clamped to this *)
}

(** [jobs = Pool.default_jobs ()], no TCP listener, no disk store,
    capacity 128, bound 64, no fuel cap. *)
val default_config : socket:string -> config

type t

(** Bind, listen, and spawn the accept domain. Replaces a stale socket
    file at the configured path. SIGPIPE is set to ignore (a client
    hanging up mid-reply must not kill the daemon).
    @raise Unix.Unix_error when the socket cannot be bound. *)
val start : config -> t

(** The shared artifact cache (exposed for the service tests' corrupt-
    entry drill and the [stats] op). *)
val cache : t -> Gmt_cache.Cache.t

(** The number of reference records the daemon holds: one per cell key
    whose [run] completed its single-threaded reference, at most
    [mem_capacity], least recently used dropped first. A later [run] of
    such a cell, under no less fuel, is served from its record
    ({!Render.run_text}) and counted in [req.reference.reused]. *)
val references : t -> int

val socket : t -> string

(** The port the TCP listener actually bound ([None] without one) —
    matters when the config asked for port [0] (ephemeral): this is the
    kernel's pick, the one to advertise to clients. *)
val tcp_port : t -> int option

(** The live telemetry registry: request counters, rolling windows,
    per-op latency and per-stage histograms. The [stats] op renders
    exactly this registry; in-process consumers (the farm shard, tests)
    can read it without a socket round-trip. *)
val registry : t -> Gmt_telemetry.Registry.t

(** [request_keys j payload] — the keys the daemon derives for a [run],
    [check] or [sweep] request document [j] carrying the GMT-IR
    [payload], from the one digest it takes over the payload.
    [Ok (cell, flight)]: [cell] is a run/check cell's artifact-cache
    key, {!Render.fingerprint} of the payload, which is also the key
    the farm routes by ([None] for a sweep); [flight] is the
    single-flight key, the cell key plus the op and the requested fuel
    (for a sweep, a payload digest plus max_threads and fuel). Trace
    fields never enter either key. [Error o] is the outcome a request
    without a program or with an unknown technique gets before any
    flight starts.
    @raise Invalid_argument when [j]'s op is not a compile op. *)
val request_keys :
  Gmt_obs.Json.t -> string -> (string option * string, Render.outcome) result

(** Ask the accept loop to stop. Returns immediately; pair with
    {!join}. Safe from a signal handler's continuation. *)
val request_stop : t -> unit

(** Wait for the accept domain to exit, then drain and join the worker
    pool. In-flight requests finish and are answered. *)
val join : t -> unit

(** [request_stop] + [join]. *)
val stop : t -> unit
