(** Content-addressed store of compiled artifacts (library [gmt_cache]).

    A bounded in-memory LRU in front of an optional on-disk store. Keys
    are {!Fingerprint} hex digests; values are serialized multi-threaded
    programs together with their translation-validation verdict and the
    compile-time counts the service reports — a hit skips the whole
    PDG → partition → MTCG/COCO → verify pipeline. The service's
    [Render] computes every key and builds every {!entry}; the farm
    only moves encoded entries between shards.

    {2 On-disk format}

    One file per entry, [<key>.entry] under the cache directory:

    {v
    gmt-cache/<format_version>\n
    <md5 hex of payload>\n
    <payload: Marshal of entry>
    v}

    Writes go through {!Diskio.write_atomic} (temp file + rename), so a
    crashed or interrupted writer never leaves a truncated entry. Reads
    verify the version header and the checksum {e before} unmarshalling;
    a corrupt or stale-version entry is counted, deleted (evicted) and
    reported as a miss, so the caller transparently recompiles and
    overwrites it.

    {2 Counters}

    {!stats} is the one count of this cache's hits, misses, stores,
    evictions and corrupt entries: always on, read by the tests and by
    the daemon's [stats] frame. Nothing is copied into
    {!Gmt_obs.Obs.Metrics}, which holds the per-run compile and
    simulation counters; evictions and corrupt entries are also
    {!Gmt_telemetry.Events}.

    All operations are thread-safe (a single mutex per cache). *)

type entry = {
  mtp : Gmt_ir.Mtprog.t;  (** the generated thread code *)
  comm_sites : int;       (** communication plan size, as [gmtc check] reports *)
  verified : bool;        (** gmt_verify verdict at store time *)
  w_name : string;
      (** workload name at store time — lets the service label a hit
          without re-parsing the request's GMT-IR text *)
}

type stats = {
  hits : int;       (** memory + disk hits *)
  misses : int;
  stores : int;
  evictions : int;  (** LRU drops from memory + corrupt-entry deletions *)
  corrupt : int;    (** bad checksum, bad header, or stale version *)
}

type t

(** [create ()] — [mem_capacity] bounds the in-memory LRU (default 128
    entries); [dir], when given, enables the on-disk store (created if
    missing). *)
val create : ?mem_capacity:int -> ?dir:string -> unit -> t

val dir : t -> string option

(** The on-disk path an entry for [key] would live at ([None] for a
    memory-only cache). Exposed so tests and the corruption drill can
    damage an entry deliberately. *)
val entry_path : t -> string -> string option

(** [find t key] — memory first, then disk (a disk hit is promoted into
    memory). Corrupt or stale disk entries are evicted and miss. *)
val find : t -> string -> entry option

(** [store t key e] — inserts into memory (evicting least-recently-used
    entries beyond capacity) and, when a directory is configured, writes
    the entry to disk atomically. After releasing the lock, invokes the
    {!set_on_store} hook, if any. *)
val store : t -> string -> entry -> unit

(** [set_on_store t f] registers a hook called after every {!store}
    (outside the cache lock) with the stored key and entry. The farm's
    replication pusher hangs off this; [None] clears it. The hook is
    {e not} called by {!ingest}, which is what keeps replication from
    cascading shard-to-shard forever. *)
val set_on_store : t -> (string -> entry -> unit) option -> unit

(** [ingest t key e] — replication intake: inserts [e] {e colder} than
    every owned entry (LRU evicts replicas first, so warming a shard can
    never push out keys it earned by serving), skips keys already
    present, fires no [on_store] hook, and bumps no hit/miss/store
    counter. Returns [true] when the entry was inserted. A later {!find}
    promotes a replica to a normally-ticked resident. *)
val ingest : t -> string -> entry -> bool

(** {2 Entry wire codec}

    The same header + md5 + Marshal encoding the disk store uses,
    exposed so the farm can ship entries between shards ([put] op)
    with end-to-end corruption detection. *)

val encode_entry : entry -> string
val decode_entry : string -> (entry, string) result

(** Point-in-time snapshot of this cache's counters. *)
val stats : t -> stats
