type arg = I of int | S of string

type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  alloc_bytes : float;
  domain : int;
  args : (string * arg) list;
}

(* ------------------------------ state ------------------------------ *)

let tracing = Atomic.make false
let metrics_on = Atomic.make false

(* Completed spans, newest first. Shared by all domains. *)
let sink_lock = Mutex.create ()
let sink : span list ref = ref []

(* Stack of active [collect] scopes, per domain. *)
let collectors_key : span list ref list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let enable_tracing () = Atomic.set tracing true
let enable_metrics () = Atomic.set metrics_on true
let metrics_enabled () = Atomic.get metrics_on

let recording () =
  Atomic.get tracing || Domain.DLS.get collectors_key <> []

(* ------------------------------ metrics ------------------------------ *)

module Metrics = struct
  let lock = Mutex.create ()
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64

  let merge f k v =
    if Atomic.get metrics_on then begin
      Mutex.lock lock;
      let cur = Hashtbl.find_opt tbl k in
      Hashtbl.replace tbl k (match cur with None -> v | Some c -> f c v);
      Mutex.unlock lock
    end

  let add k v = merge ( + ) k v
  let peak k v = merge max k v

  let get k =
    Mutex.lock lock;
    let v = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
    Mutex.unlock lock;
    v

  let clear () =
    Mutex.lock lock;
    Hashtbl.reset tbl;
    Mutex.unlock lock

  let sorted_bindings () =
    Mutex.lock lock;
    let bs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    Mutex.unlock lock;
    List.sort (fun (a, _) (b, _) -> compare a b) bs
end

let reset () =
  Atomic.set tracing false;
  Atomic.set metrics_on false;
  Mutex.lock sink_lock;
  sink := [];
  Mutex.unlock sink_lock;
  Metrics.clear ()

(* ------------------------------ spans ------------------------------ *)

let record_global s =
  Mutex.lock sink_lock;
  sink := s :: !sink;
  Mutex.unlock sink_lock

let span ?(cat = "pass") ?(args = []) name f =
  let collectors = Domain.DLS.get collectors_key in
  if (not (Atomic.get tracing)) && collectors = [] then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let s =
        {
          name;
          cat;
          ts_us = t0 *. 1e6;
          dur_us = (t1 -. t0) *. 1e6;
          alloc_bytes = Gc.allocated_bytes () -. a0;
          domain = (Domain.self () :> int);
          args;
        }
      in
      List.iter (fun r -> r := s :: !r) collectors;
      if Atomic.get tracing then record_global s
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let record s =
  List.iter (fun r -> r := s :: !r) (Domain.DLS.get collectors_key);
  if Atomic.get tracing then record_global s

let collect f =
  let r = ref [] in
  let stack = Domain.DLS.get collectors_key in
  Domain.DLS.set collectors_key (r :: stack);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set collectors_key stack)
    (fun () ->
      let v = f () in
      (v, List.rev !r))

let spans () =
  Mutex.lock sink_lock;
  let ss = !sink in
  Mutex.unlock sink_lock;
  List.rev ss

(* ------------------------------ export ------------------------------ *)

let arg_to_json = function
  | I i -> string_of_int i
  | S s -> Json.escape s

let trace_json () =
  let evs = spans () in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.ts_us) Float.infinity evs
  in
  let t0 = if evs = [] then 0.0 else t0 in
  let evs =
    List.sort
      (fun a b ->
        compare (a.ts_us, a.domain, a.name) (b.ts_us, b.domain, b.name))
      evs
  in
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.domain) evs)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf "\n";
    Buffer.add_string buf ev
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\
            \"args\":{\"name\":%s}}"
           d
           (Json.escape (Printf.sprintf "domain %d" d))))
    domains;
  List.iter
    (fun s ->
      let args =
        ("alloc_bytes", I (int_of_float s.alloc_bytes)) :: s.args
      in
      let args_json =
        String.concat ","
          (List.map
             (fun (k, v) -> Json.escape k ^ ":" ^ arg_to_json v)
             args)
      in
      emit
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":%s,\"cat\":%s,\
            \"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
           s.domain (Json.escape s.name) (Json.escape s.cat)
           (s.ts_us -. t0) s.dur_us args_json))
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let metrics_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"gmt-metrics/1\",\"counters\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (Json.escape k);
      Buffer.add_string buf ":";
      Buffer.add_string buf (string_of_int v))
    (Metrics.sorted_bindings ());
  Buffer.add_string buf "\n}}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace path = write_file path (trace_json ())
let write_metrics path = write_file path (metrics_json ())
