(** Single-flight coalescing of concurrent computations on one key.

    [run t key f] — if no flight for [key] is in progress, the caller
    becomes the {e leader}: it runs [f ()] and returns [(v, `Led)].
    Callers arriving while the leader runs block and share its result,
    returning [(v, `Joined)] without running [f]. The flight is
    unpublished the moment it completes, so later callers start a new
    one (in gmtd, that second flight is a cache hit — the first one
    stored the artifact).

    An exception from [f] is re-raised in the leader {e and} every
    joined waiter.

    The server wraps compile requests in this, keyed on a flight key it
    derives from the request's one payload digest (the cell's cache key
    plus op and fuel; see {!Server.request_keys}), so M concurrent
    misses on one fingerprint cost one compile and M replies — the
    [`Led]/[`Joined] split feeds the
    [farm.singleflight.leads]/[farm.singleflight.waits] counters. *)

type 'a t

val create : unit -> 'a t
val run : 'a t -> string -> (unit -> 'a) -> 'a * [ `Led | `Joined ]
