(** Structured JSONL event log: severity, bounded ring.

    Every event renders as one JSON line
    [{"ts": …, "severity": "warn", "kind": "cache.corrupt", …fields}]
    and lands in an in-process ring of the last 256 lines (oldest
    dropped first); an optional sink additionally receives each line
    the moment it is emitted — the daemon points it at stderr so
    degraded states (evictions, corrupt-entry recoveries, fallbacks,
    drain) are visible in the log, not just in post-mortem queries.
    Every event is kept: the daemon emits them only on such states.

    State is process-global (like {!Gmt_obs.Obs}); {!reset} restores
    defaults between tests. *)

type severity = Debug | Info | Warn | Error

val severity_name : severity -> string

(** [emit ~kind fields] — record one event, default severity [Info].
    Fields are appended to the rendered object after [ts], [severity]
    and [kind]; field order is preserved. *)
val emit :
  ?severity:severity -> kind:string -> (string * Gmt_obs.Json.t) list -> unit

(** Kept lines, oldest first: the last 256 emitted. Each parses as one
    JSON object. *)
val recent : unit -> string list

(** Sink for emitted lines (e.g. [prerr_endline]); [None] disables. *)
val set_sink : (string -> unit) option -> unit

(** Drop all events and disable the sink. *)
val reset : unit -> unit
