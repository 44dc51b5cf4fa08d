module Json = Gmt_obs.Json

type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let capacity = 256

type state = {
  ring : string array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable sink : (string -> unit) option;
}

let lock = Mutex.create ()

let st =
  { ring = Array.make capacity ""; head = 0; len = 0; sink = None }

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let render ~ts ~severity ~kind fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f,\"severity\":" ts);
  Buffer.add_string buf (Json.escape (severity_name severity));
  Buffer.add_string buf ",\"kind\":";
  Buffer.add_string buf (Json.escape kind);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Json.escape k);
      Buffer.add_char buf ':';
      Json.to_buffer buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let emit ?(severity = Info) ~kind fields =
  let line = render ~ts:(Unix.gettimeofday ()) ~severity ~kind fields in
  let sink =
    locked (fun () ->
        st.ring.(st.head) <- line;
        st.head <- (st.head + 1) mod capacity;
        if st.len < capacity then st.len <- st.len + 1;
        st.sink)
  in
  Option.iter (fun f -> f line) sink

let recent () =
  locked (fun () ->
      List.init st.len (fun i ->
          st.ring.((st.head - st.len + i + (2 * capacity)) mod capacity)))

let set_sink s = locked (fun () -> st.sink <- s)

let reset () =
  locked (fun () ->
      Array.fill st.ring 0 capacity "";
      st.head <- 0;
      st.len <- 0;
      st.sink <- None)
