(** Wire protocol of the gmtd compile service: length-prefixed frames
    over a Unix-domain stream socket, each a small JSON document plus an
    optional raw binary attachment.

    A frame is a 4-byte big-endian unsigned total payload length,
    followed by a 4-byte big-endian JSON length, the JSON document
    ({!Gmt_obs.Json} syntax), and finally [total - 4 - json_len] bytes
    of attachment. Both directions use the same framing.

    The attachment exists for one reason: compile requests carry a whole
    canonical GMT-IR program (hundreds of KB), and shipping it inside
    the JSON string would force an escape, a parse and several
    large-object copies per request — allocation churn whose GC pauses
    dominate the warm (cache-hit) latency of the service. As raw bytes
    after the document, the program costs one slice on receive and
    nothing on send.

    A reader rejects frames whose declared lengths are inconsistent,
    zero, exceed {!max_frame}, or whose JSON does not parse — the server
    answers such a connection with one error frame and closes it.

    Request documents: [{"op": "ping" | "stats" | "run" | "check" |
    "sweep", ...}] — compile ops carry the canonical textual GMT-IR as
    the attachment, the only way a program arrives (a compile request
    with an empty attachment is answered with exit 2, "request lacks
    GMT-IR"), plus ["technique"], ["coco"], ["threads"], optional
    ["fuel"]; sweep carries ["max_threads"]. Unknown fields are
    ignored. Responses:
    [{"ok": true, "out": …, "err": …, "exit": …, "cache":
    "hit"|"miss"|"none"}] on success, [{"ok": false, "busy": true,
    "err": …}] on overload and [{"ok": false, "err": …}] on protocol
    errors; responses carry no attachment. *)

(** Accepted payload bound (16 MiB) — far above any workload text, small
    enough that a garbage length prefix cannot balloon allocation. *)
val max_frame : int

(** Protocol identifier carried in ping replies. *)
val version : string

(** [write_frame fd ?payload j] writes one complete frame (handles
    short writes); [payload] is the raw attachment, default empty.
    @raise Unix.Unix_error on I/O failure. *)
val write_frame : Unix.file_descr -> ?payload:string -> Gmt_obs.Json.t -> unit

(** [read_frame fd] reads exactly one frame, returning the document and
    the attachment ([""] if none). [`Eof] means the peer closed before
    the first header byte (a clean end of the request stream);
    [`Malformed] covers truncated headers/payloads, inconsistent or
    oversized lengths, and JSON that does not parse. *)
val read_frame :
  Unix.file_descr ->
  (Gmt_obs.Json.t * string, [ `Eof | `Malformed of string ]) result

(** {2 Field helpers over {!Gmt_obs.Json.t} objects} *)

val str_field : Gmt_obs.Json.t -> string -> string option
val int_field : Gmt_obs.Json.t -> string -> int option
val bool_field : Gmt_obs.Json.t -> string -> bool option
