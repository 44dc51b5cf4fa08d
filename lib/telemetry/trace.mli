(** Cross-process trace propagation for the gmtd service.

    A trace id is an opaque 16-hex-char token the client mints
    ({!genid}) and sends in the request document; the server tags every
    span it records for that request with the id and ships the spans
    back in the reply, where the client re-records them into its local
    {!Gmt_obs.Obs} sink — one [--trace] file then shows the client's
    round-trip span and the server's per-stage children on separate
    tracks of the same Perfetto timeline.

    {!span_to_json}/{!span_of_json} are exact inverses on the span
    fields the Chrome exporter uses (name, cat, timestamps, allocation,
    domain, args), which is what lets a span cross the wire without a
    dedicated wire format. *)

(** Fresh, effectively unique id: 16 lowercase hex chars. *)
val genid : unit -> string

(** The canonical per-request server stage names: decode,
    fingerprint, cache lookup, parse, compile, verify, simulate,
    encode. Only a request that needs its program parses it: a sweep,
    a check that misses the cache, a run whose cell has a reference
    record but no cached artifact, and a run without a record (which
    parses before its cache lookup). Spans with these names are what
    the stats plane's per-stage histograms aggregate and what the
    traced-request test asserts. *)
val stage_names : string array

val span_to_json : Gmt_obs.Obs.span -> Gmt_obs.Json.t

(** [None] when the value lacks mandatory span fields. *)
val span_of_json : Gmt_obs.Json.t -> Gmt_obs.Obs.span option

val spans_to_json : Gmt_obs.Obs.span list -> Gmt_obs.Json.t

(** Decodes an array produced by {!spans_to_json}, dropping malformed
    elements. *)
val spans_of_json : Gmt_obs.Json.t -> Gmt_obs.Obs.span list
