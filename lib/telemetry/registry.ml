module Json = Gmt_obs.Json

type counter = int Atomic.t
type gauge = int Atomic.t

type t = {
  lock : Mutex.t; (* guards the tables; instruments carry their own sync *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  windows : (string, Rolling.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    windows = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let intern tbl t name mk =
  locked t (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = mk () in
        Hashtbl.add tbl name v;
        v)

let counter t name = intern t.counters t name (fun () -> Atomic.make 0)
let incr c = Atomic.incr c

let add c n =
  (* No fetch_and_add contention concern at service rates; keep it CAS-free. *)
  ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c
let gauge t name = intern t.gauges t name (fun () -> Atomic.make 0)
let set_gauge g v = Atomic.set g v

let window ?slots ?slot_s t kind name =
  intern t.windows t name (fun () -> Rolling.create ?slots ?slot_s kind)

let histogram t name = intern t.histograms t name Histogram.create

let find_histogram t name =
  locked t (fun () -> Hashtbl.find_opt t.histograms name)

let find_counter t name =
  locked t (fun () -> Hashtbl.find_opt t.counters name)

(* Stable export order: sorted names within each family. *)
let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let num i = Json.Num (float_of_int i)

let hist_json h =
  let counts = Histogram.counts h in
  let buckets = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        buckets := (string_of_int (Histogram.bucket_lo i), num c) :: !buckets)
    counts;
  Json.Obj
    [
      ("count", num (Histogram.count h));
      ("sum", num (Histogram.sum h));
      ("min", num (Histogram.min_value h));
      ("max", num (Histogram.max_value h));
      ("mean", Json.Num (Histogram.mean h));
      ("p50", num (Histogram.quantile h 0.50));
      ("p90", num (Histogram.quantile h 0.90));
      ("p99", num (Histogram.quantile h 0.99));
      ("buckets", Json.Obj (List.rev !buckets));
    ]

let json ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let counters, gauges, windows, histograms =
    locked t (fun () ->
        (sorted t.counters, sorted t.gauges, sorted t.windows,
         sorted t.histograms))
  in
  Json.Obj
    [
      ("schema", Json.Str "gmt-telemetry/1");
      ( "counters",
        Json.Obj (List.map (fun (k, c) -> (k, num (Atomic.get c))) counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, g) -> (k, num (Atomic.get g))) gauges) );
      ( "windows",
        Json.Obj
          (List.map
             (fun (k, w) ->
               ( k,
                 Json.Obj
                   [
                     ( "kind",
                       Json.Str
                         (match Rolling.kind w with
                         | Rolling.Sum -> "sum"
                         | Rolling.Peak -> "peak") );
                     ("window_s", Json.Num (Rolling.window_s w));
                     ("total", num (Rolling.total w ~now));
                   ] ))
             windows) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) histograms) );
    ]

let render_json ?now t = Json.to_string (json ?now t)

(* ---------------------------- prometheus ---------------------------- *)

let mangle name =
  String.concat ""
    ("gmt_"
    :: List.init (String.length name) (fun i ->
           match name.[i] with
           | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> String.make 1 c
           | _ -> "_"))

let prometheus ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let counters, gauges, windows, histograms =
    locked t (fun () ->
        (sorted t.counters, sorted t.gauges, sorted t.windows,
         sorted t.histograms))
  in
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (k, c) ->
      let m = mangle k in
      pf "# TYPE %s counter\n%s %d\n" m m (Atomic.get c))
    counters;
  List.iter
    (fun (k, g) ->
      let m = mangle k in
      pf "# TYPE %s gauge\n%s %d\n" m m (Atomic.get g))
    gauges;
  List.iter
    (fun (k, w) ->
      let m = mangle k ^ "_window" in
      pf "# TYPE %s gauge\n%s %d\n" m m (Rolling.total w ~now))
    windows;
  List.iter
    (fun (k, h) ->
      let m = mangle k in
      pf "# TYPE %s histogram\n" m;
      let counts = Histogram.counts h in
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            cum := !cum + c;
            pf "%s_bucket{le=\"%d\"} %d\n" m (Histogram.bucket_hi i - 1) !cum
          end)
        counts;
      pf "%s_bucket{le=\"+Inf\"} %d\n" m (Histogram.count h);
      pf "%s_sum %d\n" m (Histogram.sum h);
      pf "%s_count %d\n" m (Histogram.count h))
    histograms;
  Buffer.contents buf
