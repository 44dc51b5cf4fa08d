(** Pipeline observability: span tracing and a structured-metrics
    registry (library [gmt_obs]).

    {2 Span model}

    A {!span} is one timed pass execution: name, category, wall-clock
    interval, bytes allocated (per-domain [Gc.allocated_bytes] delta) and
    the id of the domain that ran it. Spans are recorded by wrapping the
    pass body in {!span}; nesting follows the call stack, so a
    [compile] span contains its [pdg.build], [gremio.partition], …
    children, and matrix cells running on different pool domains appear
    as separate tracks of the exported Chrome trace.

    {2 Zero cost when disabled}

    Both tracing and metrics are off by default. With both off and no
    {!collect} scope active, {!span} is a bool load and an empty-list
    check before calling the wrapped function, and {!Metrics} operations
    return immediately — nothing allocates and no lock is taken. The
    simulator's per-cycle stall attribution deliberately does {e not} go
    through this module: it is accumulated in pre-sized int arrays inside
    the kernel (see {!Gmt_machine.Sim}) and only summarized into the
    registry afterwards.

    {2 Determinism}

    The metrics registry holds only merge-commutative integers
    (additive counters and max-merged peaks), never wall-clock, and
    {!metrics_json} sorts keys — so the metrics file is byte-identical
    for every [--jobs] value. Traces carry timestamps and make no such
    promise. *)

type arg = I of int | S of string

type span = {
  name : string;
  cat : string;
  ts_us : float;  (** wall-clock start, microseconds since the epoch *)
  dur_us : float;
  alloc_bytes : float;  (** this domain's allocation during the span *)
  domain : int;  (** id of the domain that ran the pass *)
  args : (string * arg) list;
}

(** {1 Switches} *)

val enable_tracing : unit -> unit
val enable_metrics : unit -> unit
val metrics_enabled : unit -> bool

(** True when a span recorded now would be kept (tracing on, or inside a
    {!collect} scope on this domain). Gate arg computation on this. *)
val recording : unit -> bool

(** Disable both switches and drop all recorded spans and counters. *)
val reset : unit -> unit

(** {1 Spans} *)

(** [span name f] runs [f] and, when recording, appends a completed span.
    The span is recorded (and the original backtrace preserved) even if
    [f] raises. [cat] defaults to ["pass"]. *)
val span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** [record s] appends an already-completed span as if it had just
    finished on this domain: into every active {!collect} scope here and,
    when tracing is on, into the global sink. Lets spans captured in
    another process (a gmtd reply) join this process's trace. *)
val record : span -> unit

(** [collect f] additionally captures every span completed by [f] on the
    current domain (independently of the global tracing switch) and
    returns them in completion order — how [Velocity.run_matrix] obtains
    the per-cell pass breakdown. Scopes nest. *)
val collect : (unit -> 'a) -> 'a * span list

(** Globally recorded spans (tracing only), in completion order. *)
val spans : unit -> span list

(** {1 Export} *)

(** Chrome [trace_event] JSON (an object with a [traceEvents] array of
    ["ph":"X"] complete events plus thread-name metadata), loadable in
    Perfetto / [chrome://tracing]. Timestamps are rebased to the earliest
    span. *)
val trace_json : unit -> string

val write_trace : string -> unit

(** {1 Metrics} *)

module Metrics : sig
  (** [add k v] — additive counter. No-op unless metrics are enabled. *)
  val add : string -> int -> unit

  (** [peak k v] — max-merged gauge. No-op unless metrics are enabled. *)
  val peak : string -> int -> unit

  (** Current value ([0] for an absent key). *)
  val get : string -> int
end

(** [{"schema":"gmt-metrics/1","counters":{…}}] with keys sorted. *)
val metrics_json : unit -> string

val write_metrics : string -> unit
