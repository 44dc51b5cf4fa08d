module Json = Gmt_obs.Json
module Obs = Gmt_obs.Obs
module Events = Gmt_telemetry.Events
module Trace = Gmt_telemetry.Trace

type error = [ `No_daemon | `Busy of string | `Protocol of string ]

(* ---------------------------- endpoints ----------------------------- *)

type endpoint = Unix_path of string | Tcp of string * int

(* A socket argument with no '/' that ends in ':<port>' is TCP;
   everything else is a Unix-domain path. ["./host:1"] stays a path, so
   pathological filenames remain reachable. *)
let endpoint_of_string s =
  if s = "" || String.contains s '/' then Unix_path s
  else
    match String.rindex_opt s ':' with
    | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some port when port > 0 && port < 65536 -> Tcp (host, port)
      | _ -> Unix_path s)
    | _ -> Unix_path s

let connect_timeout = 2.0
let read_deadline = 60.0
let retry_backoff = 0.05

let resolve host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> None
  | ai :: _ -> Some ai.Unix.ai_addr

(* TCP connect under a deadline: nonblocking connect, select for
   writability, then read the socket's error slot. A shard that is down
   (refused), unreachable, or black-holed (timeout) all collapse to
   [`No_daemon] — the router's failover signal. *)
let connect_tcp ~timeout host port =
  match resolve host port with
  | None -> Error `No_daemon
  | Some addr -> (
    let fd =
      Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM
        0
    in
    let fail () =
      (try Unix.close fd with _ -> ());
      Error `No_daemon
    in
    Unix.set_nonblock fd;
    match Unix.connect fd addr with
    | () ->
      Unix.clear_nonblock fd;
      Ok fd
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      (* A stray signal interrupting the select says nothing about the
         shard; resume waiting for whatever is left of the deadline. *)
      let deadline = Unix.gettimeofday () +. timeout in
      let rec await () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then fail () (* connect timeout *)
        else
          match Unix.select [] [ fd ] [] left with
          | [], [], [] -> fail () (* connect timeout *)
          | _ -> (
            match Unix.getsockopt_error fd with
            | None ->
              Unix.clear_nonblock fd;
              Ok fd
            | Some _ -> fail ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      in
      await ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENETUNREACH), _, _)
      ->
      fail ()
    | exception e ->
      (try Unix.close fd with _ -> ());
      raise e)

let connect_endpoint ?(timeout = connect_timeout) ep =
  match ep with
  | Tcp (host, port) -> (
    match connect_tcp ~timeout host port with
    | Error _ as e -> e
    | Ok fd ->
      (* Receive deadline: a shard that accepts and then wedges must not
         hang the client forever. Proto maps the resulting EAGAIN to a
         clean "read timeout" protocol error. *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_deadline
       with Unix.Unix_error _ -> ());
      Ok fd)
  | Unix_path socket_path -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception
        Unix.Unix_error
          ( (Unix.ENOENT | Unix.ECONNREFUSED | Unix.ENOTSOCK | Unix.EACCES),
            _,
            _ ) ->
      (try Unix.close fd with _ -> ());
      Error `No_daemon
    | exception e ->
      (try Unix.close fd with _ -> ());
      raise e)

(* A request is a small JSON document plus the GMT-IR text as the
   frame's raw attachment — see {!Proto} for why the program does not
   ride inside the JSON. *)
type req = { body : Json.t; payload : string }

(* One connection, one round trip. [`Lost] is the ambiguous outcome: the
   connection died after the request was (at least partially) written
   and before a reply frame arrived — the daemon may or may not have
   seen the request. *)
let attempt ep { body; payload } =
  (* As in the daemon, SIGPIPE is ignored: a write to a daemon that has
     already hung up must raise EPIPE below, where its reply is still
     read, instead of killing the client. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match connect_endpoint ep with
  | Error `No_daemon -> Error `No_daemon
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        let read_reply () =
          match Proto.read_frame fd with
          | Ok (j, _) -> Ok j
          | Error `Eof -> Error `Lost
          | Error (`Malformed msg) -> Error (`Protocol msg)
        in
        match Proto.write_frame fd ~payload body with
        | exception Unix.Unix_error _ ->
          (* EPIPE: the daemon hung up before our request landed — but it
             may have answered first (the busy reply does exactly that),
             and that frame is still in our receive buffer. *)
          read_reply ()
        | () -> read_reply ())

(* Retry classification. Connection refused means nobody is serving:
   surface [`No_daemon] so the caller fails over along the ring and,
   when no shard is left, falls back to a local compile. A mid-reply EOF means the daemon
   restarted or crashed under us: retry ONCE on a fresh connection — a
   restarted shard answers the retry (usually from cache), whereas the
   old behaviour reported [`No_daemon] and the client silently compiled
   locally, doubling the work. Lost twice is reported loudly as a
   protocol error rather than risking a third compile of the same
   request. *)
let rpc ~socket req =
  let ep = endpoint_of_string socket in
  match attempt ep req with
  | Error `Lost -> (
    (try Unix.sleepf retry_backoff with _ -> ());
    match attempt ep req with
    | Error `Lost ->
      Error (`Protocol "connection lost twice; not retrying further")
    | (Error (`No_daemon | `Protocol _) | Ok _) as r -> r)
  | (Error (`No_daemon | `Protocol _) | Ok _) as r -> r

(* --------------------------- request bodies ------------------------ *)

let opt_fuel fuel rest =
  match fuel with
  | None -> rest
  | Some f -> ("fuel", Json.Num (float_of_int f)) :: rest

let compile_body ~op ~gmt ?fuel rest =
  { body = Json.Obj (("op", Json.Str op) :: opt_fuel fuel rest); payload = gmt }

let run_request ~gmt ~technique ~coco ~threads ?fuel () =
  compile_body ~op:"run" ~gmt ?fuel
    [
      ("technique", Json.Str technique);
      ("coco", Json.Bool coco);
      ("threads", Json.Num (float_of_int threads));
    ]

let check_request ~gmt ~technique ~coco ~threads () =
  compile_body ~op:"check" ~gmt
    [
      ("technique", Json.Str technique);
      ("coco", Json.Bool coco);
      ("threads", Json.Num (float_of_int threads));
    ]

let sweep_request ~gmt ~max_threads ?fuel () =
  compile_body ~op:"sweep" ~gmt ?fuel
    [ ("max_threads", Json.Num (float_of_int max_threads)) ]

(* Tag a compile request with a trace id: the server will collect its
   per-stage spans under this id and ship them back in the reply.
   [parent_span] names the client-side span the server's work nests
   under when the two trace halves are stitched. *)
let traced ?(parent_span = "remote") ~trace_id req =
  match req.body with
  | Json.Obj fields ->
    {
      req with
      body =
        Json.Obj
          (fields
          @ [
              ("trace_id", Json.Str trace_id);
              ("parent_span", Json.Str parent_span);
            ]);
    }
  | _ -> req

let ping_request = { body = Json.Obj [ ("op", Json.Str "ping") ]; payload = "" }
let stats_request =
  { body = Json.Obj [ ("op", Json.Str "stats") ]; payload = "" }

(* Replication intake: the pre-encoded cache entry rides as the
   attachment (it already carries its own checksum), the key in the
   document. *)
let put_request ~key ~entry () =
  { body = Json.Obj [ ("op", Json.Str "put"); ("key", Json.Str key) ]; payload = entry }

(* ----------------------------- replies ----------------------------- *)

let reply_error j =
  let err = Option.value (Proto.str_field j "err") ~default:"" in
  if Proto.bool_field j "busy" = Some true then `Busy err
  else `Protocol (if err = "" then "malformed reply" else err)

(* Server-side spans riding on the reply re-enter this process's span
   stream as if they had completed here — one [--trace] file then holds
   both halves of the round trip. No-op when the reply carries no spans
   or nothing here is recording. *)
let adopt_spans j =
  if Obs.recording () then
    match Json.member "spans" j with
    | Some arr -> List.iter Obs.record (Trace.spans_of_json arr)
    | None -> ()

let request ~socket req =
  match rpc ~socket req with
  | Error _ as e -> e
  | Ok j -> (
    match Proto.bool_field j "ok" with
    | Some true -> (
      match
        ( Proto.str_field j "out",
          Proto.str_field j "err",
          Proto.int_field j "exit" )
      with
      | Some out, Some err, Some code ->
        adopt_spans j;
        let cache_status =
          Option.value (Proto.str_field j "cache") ~default:"none"
        in
        Ok { Render.out; err; code; cache_status }
      | _ -> Error (`Protocol "reply lacks out/err/exit fields"))
    | _ -> Error (reply_error j))

(* The documented silent fallback, made loud: called by drivers when a
   remote call found no daemon and is about to compile locally. The
   reply bytes stay byte-identical to the daemon's (same [Render]
   path); only this structured event and the returned stderr line
   distinguish degraded mode. *)
let warn_fallback ~socket () =
  Events.emit ~severity:Events.Warn ~kind:"client.fallback"
    [ ("socket", Json.Str socket) ];
  Printf.sprintf
    "gmtc: warning: no daemon at %s; falling back to local compile\n" socket

let ping ~socket =
  match rpc ~socket ping_request with
  | Error _ as e -> e
  | Ok j -> (
    match (Proto.bool_field j "ok", Proto.str_field j "version") with
    | Some true, Some v -> Ok v
    | _ -> Error (reply_error j))

let stats ~socket =
  match rpc ~socket stats_request with
  | Error _ as e -> e
  | Ok j -> (
    match Proto.bool_field j "ok" with
    | Some true -> Ok j
    | _ -> Error (reply_error j))
