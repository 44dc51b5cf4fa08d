(** A named registry of telemetry instruments: the data model behind the
    gmtd [stats] plane.

    Four instrument families, each its own namespace:

    - {b counters} — monotonic totals ([Atomic] increments);
    - {b gauges} — last-written values (in-flight depth, pool size);
    - {b windows} — {!Rolling} counters ("busy replies in the last
      minute", "in-flight peak in the last minute");
    - {b histograms} — {!Histogram} latency distributions.

    Lookups are get-or-create and interned: the hot path resolves its
    instruments once at startup and then touches them without any table
    access or allocation. Export renders the whole registry either as a
    JSON document (keys sorted — byte-stable for a fixed state) or as
    Prometheus text-exposition format; both are pull-time snapshots and
    cost allocation, which is why they live on the [stats] request path
    rather than the compile path. All operations are thread-safe. *)

type t

type counter
type gauge

val create : unit -> t

(** {1 Instruments} *)

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> int -> unit

(** [window t kind name] — rolling window; [slots]/[slot_s] only apply
    on first creation (default: 60 × 1 s). *)
val window : ?slots:int -> ?slot_s:float -> t -> Rolling.kind -> string -> Rolling.t

val histogram : t -> string -> Histogram.t

(** Histogram by name, if created ([stats] consumers, tests). *)
val find_histogram : t -> string -> Histogram.t option

(** Counter by name, if created — lets tests and the bench harness read
    a server's counters (e.g. the farm single-flight pair) without
    racing instrument creation. *)
val find_counter : t -> string -> counter option

(** {1 Export} *)

(** The registry as a JSON value:
    [{"schema": "gmt-telemetry/1", "counters": {…}, "gauges": {…},
    "windows": {name: {"kind", "window_s", "total"}}, "histograms":
    {name: {"count","sum","min","max","mean","p50","p90","p99",
    "buckets": {"<lo>": n, …}}}}] — keys sorted, histogram buckets only
    where non-zero, keyed by inclusive lower bound. [now] is the clock
    used to close the rolling windows. *)
val json : ?now:float -> t -> Gmt_obs.Json.t

val render_json : ?now:float -> t -> string

(** Prometheus text exposition: every name mangled to
    [gmt_<name with non-alphanumerics as '_'>]; counters and gauges as
    single samples, windows as gauges suffixed [_window], histograms as
    cumulative [_bucket{le="…"}] series (non-empty buckets plus
    [le="+Inf"]) with [_sum] and [_count]. *)
val prometheus : ?now:float -> t -> string
