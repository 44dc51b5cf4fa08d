module Json = Gmt_obs.Json
module Events = Gmt_telemetry.Events

type entry = {
  mtp : Gmt_ir.Mtprog.t;
  comm_sites : int;
  verified : bool;
  w_name : string;
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
}

type slot = { value : entry; mutable tick : int }

type t = {
  lock : Mutex.t;
  mem : (string, slot) Hashtbl.t;
  mem_capacity : int;
  disk : string option;
  mutable clock : int;  (** LRU timestamp source *)
  mutable cold_clock : int;  (** replica timestamp source, always < any clock tick *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable on_store : (string -> entry -> unit) option;
}

let header = Printf.sprintf "gmt-cache/%d" Fingerprint.format_version

let create ?(mem_capacity = 128) ?dir () =
  Option.iter Diskio.ensure_dir dir;
  {
    lock = Mutex.create ();
    mem = Hashtbl.create 64;
    mem_capacity = max 1 mem_capacity;
    disk = dir;
    clock = 0;
    cold_clock = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    corrupt = 0;
    on_store = None;
  }

let dir t = t.disk

let entry_path t key =
  Option.map (fun d -> Filename.concat d (key ^ ".entry")) t.disk

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t slot =
  t.clock <- t.clock + 1;
  slot.tick <- t.clock

(* Drop least-recently-used slots until the table fits. Capacity is
   small, so a linear scan per eviction is fine. *)
let enforce_capacity t =
  while Hashtbl.length t.mem > t.mem_capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, best) when best <= s.tick -> ()
        | _ -> victim := Some (k, s.tick))
      t.mem;
    match !victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.mem k;
      t.evictions <- t.evictions + 1;
      (* Debug so a thrashing cache can be rate-limited by sampling. *)
      Events.emit ~severity:Events.Debug ~kind:"cache.evict"
        [ ("key", Json.Str k) ]
  done

let encode e =
  let payload = Marshal.to_string e [] in
  String.concat "\n" [ header; Digest.to_hex (Digest.string payload); payload ]

(* [Ok e] on a well-formed entry; [Error reason] on a stale version,
   damaged header, checksum mismatch, or anything Marshal chokes on. The
   checksum is verified before unmarshalling, so Marshal only ever sees
   bytes the writer produced. *)
let decode s =
  match String.index_opt s '\n' with
  | None -> Error "no header"
  | Some i -> (
    let got = String.sub s 0 i in
    if got <> header then Error (Printf.sprintf "version %S, want %S" got header)
    else
      match String.index_from_opt s (i + 1) '\n' with
      | None -> Error "no checksum"
      | Some j ->
        let sum = String.sub s (i + 1) (j - i - 1) in
        let payload = String.sub s (j + 1) (String.length s - j - 1) in
        if Digest.to_hex (Digest.string payload) <> sum then
          Error "checksum mismatch"
        else (
          match (Marshal.from_string payload 0 : entry) with
          | e -> Ok e
          | exception _ -> Error "unmarshal failed"))

(* Caller holds the lock. *)
let evict_corrupt ?(reason = "") t key =
  t.corrupt <- t.corrupt + 1;
  t.evictions <- t.evictions + 1;
  Events.emit ~severity:Events.Warn ~kind:"cache.corrupt"
    [ ("key", Json.Str key); ("reason", Json.Str reason) ];
  match entry_path t key with
  | None -> ()
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.mem key with
  | Some slot ->
    touch t slot;
    t.hits <- t.hits + 1;
    Some slot.value
  | None -> (
    let miss () =
      t.misses <- t.misses + 1;
      None
    in
    match entry_path t key with
    | None -> miss ()
    | Some path -> (
      match Diskio.read_file path with
      | None -> miss ()
      | Some raw -> (
        match decode raw with
        | Error reason ->
          evict_corrupt ~reason t key;
          miss ()
        | Ok e ->
          let slot = { value = e; tick = 0 } in
          touch t slot;
          Hashtbl.replace t.mem key slot;
          enforce_capacity t;
          t.hits <- t.hits + 1;
          Some e)))

let store t key e =
  (locked t @@ fun () ->
   let slot = { value = e; tick = 0 } in
   touch t slot;
   Hashtbl.replace t.mem key slot;
   enforce_capacity t;
   t.stores <- t.stores + 1;
   match entry_path t key with
   | None -> ()
   | Some path -> Diskio.write_atomic path (encode e));
  (* Hook runs outside the lock: the farm's replication pusher enqueues
     from here, and nothing it might do (including touching this cache)
     may deadlock against the store. *)
  match t.on_store with None -> () | Some f -> f key e

let set_on_store t f = t.on_store <- f

(* Replicas enter colder than every owned entry (ticks strictly below
   any [touch] has issued), so LRU pressure always evicts a replica
   before a key this shard actually served. A later [find] promotes the
   replica with a real tick — at that point it has earned residency. *)
let ingest t key e =
  locked t @@ fun () ->
  if Hashtbl.mem t.mem key then false
  else begin
    t.cold_clock <- t.cold_clock - 1;
    Hashtbl.replace t.mem key { value = e; tick = t.cold_clock };
    enforce_capacity t;
    true
  end

let encode_entry = encode
let decode_entry = decode

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    evictions = t.evictions;
    corrupt = t.corrupt;
  }
