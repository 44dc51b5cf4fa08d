(* The metric catalog and the result line every run ends with.
   BENCHMARK.json mirrors the two lists; the smoke gate checks that they
   agree name for name and unit for unit. *)

(* Width of every parallel level: the matrix's [--jobs], the daemons'
   [--jobs], the number of client domains. The benchmark was sized on a
   2-core host; a fixed width keeps the load the same on any host. *)
let nproc = 2

(* Whether rep or slice [k] of a window runs at width 1. Widths go in the
   order 1 nproc nproc 1, repeated, so drift falls on both alike. *)
let seq_turn k = k mod 2 = k / 2 mod 2

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

(* Every workload reports every metric; an "op" is a matrix cell or a
   request. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");  (* ops per second at width nproc *)
    ("seq_ops_per_s", "1/s");  (* the same at width 1 *)
    ("p50_ms", "ms");  (* op latency at width nproc *)
    ("p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Metrics that are exact order statistics; they read null when too few
   samples lie beyond them. *)
let percentiles = [ "p50_ms"; "p90_ms" ]

let per_layer =
  List.map (fun l -> (l ^ "_share", "ratio")) Spans.layers
  @ [
      ("trace.op_ms", "ms");
      ("trace.overhead_share", "ratio");
      ("exec.parallel_efficiency", "ratio");
      ("exec.critical_path_share", "ratio");
      ("service.stages_share", "ratio");
      ("cache.hit_share", "ratio");
      ("cache.evictions_per_req", "ratio");
      ("exec.server_parks_per_req", "ratio");
      ("exec.server_steals_per_req", "ratio");
      ("farm.replicated_share", "ratio");
      ("farm.shard_imbalance", "ratio");
      ("farm.singleflight_waits", "count");
      ("machine.sim_minstr_per_s", "Minstr/s");
      ("machine.dyn_instrs", "count");
      ("mtcg.comm_instrs", "count");
    ]

(* Ops a run attempted, and how many failed their check. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* A measured value and the number of samples behind it. *)
type value = { v : float option; n : int }

let value ?(n = 1) v = { v = Some v; n }

(* The [pct]-th percentile of raw samples, with their count. *)
let percentile xs pct =
  let a = Sample.sorted xs in
  { v = Sample.percentile a pct; n = Array.length a }

type result = {
  ops : tally;
  values : (string * value) list;
  spans : Spans.t option;  (** the traced run's spans, for the trace file *)
}

let json_num = function
  | Some x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | _ -> "null"

(* Human-readable lines (with sample counts), then the JSON result as
   the last line of stdout. *)
let print ~workload ~trace r =
  let catalog = if trace then per_layer else end_to_end in
  let find name =
    match List.assoc_opt name r.values with
    | Some v -> v
    | None -> failwith ("workload produced no value for " ^ name)
  in
  (* A traced run computes the end-to-end values too. *)
  List.iter (fun (name, _) -> ignore (find name)) end_to_end;
  Printf.printf "%s: %d ops attempted, %d failed\n" workload r.ops.attempted
    r.ops.failed;
  List.iter
    (fun (name, unit) ->
      let { v; n } = find name in
      Printf.printf "  %-30s %16s %-8s n=%d\n" name
        (match v with Some x -> Printf.sprintf "%.6g" x | None -> "refused")
        unit n)
    catalog;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
          (Gmt_obs.Json.escape name)
          (json_num (find name).v)
          (Gmt_obs.Json.escape unit))
      catalog
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (r.ops.failed = 0) r.ops.attempted r.ops.failed
    (String.concat "," metrics)
