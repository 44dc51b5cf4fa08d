(* The [matrix] workload: the paper's Fig-8 matrix in process — every
   Suite kernel x {single, GREMIO, GREMIO+COCO, DSWP, DSWP+COCO}, each
   cell compiled, verified and simulated by [Velocity.run_matrix]. It is
   the only workload where [--jobs] scaling shows, and it bypasses the
   cache, the daemon and the farm.

   Reps alternate between jobs=1 and jobs=nproc (the order flips every
   pair), each from a compacted heap, so drift on a shared host
   lands on both widths alike. Every rep runs the kernels in a fresh
   seeded order: at jobs=nproc the order decides which cells overlap and
   which comes last, so one order per run would make the run's wall time
   a property of its seed. *)

module V = Gmt_core.Velocity
module Obs = Gmt_obs.Obs
module Workload = Gmt_workloads.Workload

let now = Unix.gettimeofday

let check (tally : Report.tally) bench cell m =
  tally.attempted <- tally.attempted + 1;
  if not (Golden.matches bench cell m) then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "matrix: %s/%s differs from expected/cells.tsv\n%!" bench
      cell
  end

let cells rows =
  List.concat_map
    (fun (r : V.row) ->
      List.map (fun (kind, t) -> (r.V.rw, kind, t)) (Golden.cells_of_row r))
    rows

let check_rows tally rows =
  List.iter
    (fun ((w : Workload.t), kind, (t : V.timed)) ->
      check tally w.Workload.name (V.cell_name kind) t.V.metrics)
    (cells rows)

let rep tally ~jobs ws =
  Gc.compact ();
  let t0 = now () in
  let rows = V.run_matrix ~jobs ws in
  let wall = now () -. t0 in
  check_rows tally rows;
  (wall, rows)

let root_us spans =
  List.fold_left (fun m (s : Obs.span) -> Float.max m s.Obs.dur_us) 0. spans

(* The traced composition: the public calls [Velocity.measure_cell] and
   [run_matrix] make, one cell at a time, each inside a benchmark span.
   Every cell is checked against the golden counts, so the composition
   cannot drift from the measured matrix unnoticed. Returns the critical
   path: the slowest cell plus its kernel's oracle run, in µs. *)
let traced_pass tally spans ws =
  List.fold_left
    (fun crit (w : Workload.t) ->
      let name = w.Workload.name and r = w.Workload.reference in
      let expect, oracle =
        Obs.collect (fun () ->
            Obs.span "machine.oracle" (fun () ->
                let o =
                  Gmt_machine.Interp.run ~init_regs:r.Workload.regs
                    ~init_mem:r.Workload.mem w.Workload.func
                    ~mem_size:w.Workload.mem_size
                in
                Gmt_machine.Interp.(o.memory, o.dyn_instrs)))
      in
      Spans.add spans ~ops:0 ~req:name ~tid:1 oracle;
      let slowest =
        List.fold_left
          (fun slowest kind ->
            let label = name ^ "/" ^ V.cell_name kind in
            let m, cell =
              Obs.collect (fun () ->
                  Obs.span ~cat:"cell" "bench.cell" (fun () ->
                      match kind with
                      | V.Single ->
                        Obs.span "core.measure" (fun () ->
                            V.measure_single ~expect w)
                      | V.Mt (technique, coco) ->
                        let c =
                          Obs.span "core.compile" (fun () ->
                              V.compile ~coco ~verify:false technique w)
                        in
                        let diags =
                          Obs.span "verify.run" (fun () -> V.verify_compiled c)
                        in
                        if diags <> [] then
                          failwith (label ^ ": translation validation failed");
                        Obs.span "core.measure" (fun () ->
                            V.measure ~expect c)))
            in
            check tally name (V.cell_name kind) m;
            Spans.add spans ~ops:1 ~req:label ~tid:1 cell;
            Float.max slowest (root_us cell))
          0. V.matrix_kinds
      in
      Float.max crit (root_us oracle +. slowest))
    0. ws

let order rng ws = Array.to_list (Sample.shuffle rng (Array.of_list ws))

(* The cold start a user pays: a fresh process builds the kernels and
   runs the matrix once at width nproc ([main.exe --cold-rep]). Prints
   the process's peak RSS and returns how many cells missed their golden
   counts. *)
let cold_rep ~seed =
  let tally = Report.tally () in
  let ws = order (Random.State.make [| seed |]) (Gmt_workloads.Suite.all ()) in
  check_rows tally (V.run_matrix ~jobs:Report.nproc ws);
  Printf.printf "peak_rss_mb %.17g\n%!" (Proc.peak_rss_mb "self");
  tally.failed

let run ~seed ~seconds ~trace =
  let tally = Report.tally () in
  let ws = Gmt_workloads.Suite.all () and rng = Random.State.make [| seed |] in
  let n_cells = List.length ws * List.length V.matrix_kinds in
  (* Set-up, repeated: the time and the peak RSS of a cold rep. Peak RSS
     is read there, after a fixed amount of work, rather than from this
     process, whose peak would grow with the number of reps it runs. *)
  let setups =
    List.init Report.setups (fun _ ->
        Proc.check_interrupt ();
        let t0 = now () in
        let exe = Sys.executable_name in
        let ic =
          Unix.open_process_args_in exe
            [| exe; "--cold-rep"; "--seed"; string_of_int seed |]
        in
        let out = In_channel.input_all ic in
        let failed =
          match Unix.close_process_in ic with
          | Unix.WEXITED n -> n
          | _ -> n_cells
        in
        let dt = now () -. t0 in
        tally.attempted <- tally.attempted + n_cells;
        tally.failed <- tally.failed + failed;
        let rss = Scanf.sscanf_opt out "peak_rss_mb %f" Fun.id in
        (dt, Option.value ~default:nan rss))
  in
  (* This process's own first rep is cold too: checked, not timed. *)
  ignore (rep tally ~jobs:Report.nproc (order rng ws));
  let window = if trace then seconds /. 2. else seconds in
  let seq = ref [] and par = ref [] and last = ref [] in
  let t_end = now () +. window in
  (* Reps until the window ends; at least one of each width. *)
  let k = ref 0 in
  while !k < 2 || now () < t_end do
    Proc.check_interrupt ();
    let jobs = if Report.seq_turn !k then 1 else Report.nproc in
    let wall, rows = rep tally ~jobs (order rng ws) in
    last := rows;
    let cell_ms =
      List.map (fun (_, _, (t : V.timed)) -> t.V.wall_s *. 1e3) (cells rows)
    in
    if jobs = 1 then seq := (wall, cell_ms) :: !seq
    else par := (wall, cell_ms) :: !par;
    incr k
  done;
  let seq = !seq and par = !par in
  (* Medians over every rep: a change that slows some reps only must
     show. *)
  let per_s reps =
    Report.value ~n:(List.length reps)
      (Sample.median
         (List.map (fun (w, _) -> float_of_int n_cells /. w) reps))
  in
  let e2e =
    [
      ("ops_per_s", per_s par);
      ("seq_ops_per_s", per_s seq);
      ("p50_ms", Report.percentile (List.concat_map snd par) 50);
      ("p90_ms", Report.percentile (List.concat_map snd par) 90);
      ( "setup_s",
        Report.value ~n:Report.setups (Sample.median (List.map fst setups)) );
      ( "peak_rss_mb",
        Report.value ~n:Report.setups (Sample.median (List.map snd setups)) );
    ]
  in
  let spans = if trace then Some (Spans.create ()) else None in
  let layers =
    match spans with
    | None -> []
    | Some spans ->
      let crits = ref [] in
      let t_end = now () +. window in
      while !crits = [] || now () < t_end do
        Proc.check_interrupt ();
        Gc.compact ();
        crits := traced_pass tally spans (order rng ws) :: !crits
      done;
      let passes = float_of_int (List.length !crits) in
      let seq_s = Sample.median (List.map fst seq)
      and par_s = Sample.median (List.map fst par) in
      let sum f =
        List.fold_left (fun a (_, _, (t : V.timed)) -> a + f t.V.metrics) 0
          (cells !last)
      in
      let dyn = sum (fun m -> m.V.dyn_instrs) in
      let n = spans.Spans.ops in
      List.map (fun (k, v) -> (k, Report.value ~n v)) (Spans.shares spans)
      @ [
          ("trace.op_ms", Report.value ~n (Spans.op_ms spans));
          ( "trace.overhead_share",
            Report.value ~n
              ((spans.Spans.wall_us /. 1e6 /. passes /. seq_s) -. 1.) );
          ( "exec.parallel_efficiency",
            Report.value ~n:(List.length par)
              (seq_s /. (float_of_int Report.nproc *. par_s)) );
          ( "exec.critical_path_share",
            Report.value ~n (Sample.mean !crits /. 1e6 /. par_s) );
          ( "machine.sim_minstr_per_s",
            Report.value ~n
              (float_of_int dyn *. passes
              /. Spans.self_us spans "machine.sim") );
          ("machine.dyn_instrs", Report.value (float_of_int dyn));
          ( "mtcg.comm_instrs",
            Report.value (float_of_int (sum (fun m -> m.V.comm_instrs))) );
        ]
      @ List.map
          (fun k -> (k, Report.value 0.))
          [ "service.stages_share"; "cache.hit_share";
            "cache.evictions_per_req"; "exec.server_parks_per_req";
            "exec.server_steals_per_req"; "farm.replicated_share";
            "farm.shard_imbalance"; "farm.singleflight_waits" ]
  in
  { Report.ops = tally; values = e2e @ layers; spans }
