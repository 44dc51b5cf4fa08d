(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4).

     fig1    — breakdown of dynamic instructions (computation vs
               communication) under plain MTCG, for GREMIO and DSWP
     fig6    — machine configuration and benchmark-function tables
     fig7    — dynamic communication remaining after COCO (relative to
               MTCG), plus memory-synchronization removal
     fig8    — speedup over single-threaded execution, with and without
               COCO
     caches  — cache hits per level, single core vs DSWP on two cores
     compile — Bechamel micro-benchmarks of compilation-phase costs
               (supporting the paper's claim that COCO's min-cuts do not
               meaningfully lengthen compilation)
     ablate  — extensions: static profile estimates, pre-pass
               optimizations, 4-thread communication reduction (COCO
               without control-flow penalties is test_coco's Fig-5
               tests: the workload suite's min-cuts have no cost ties)
     fuzz    — corpus-driven differential fuzz: gmt_verify verdicts
               cross-checked against MT-interpreter equivalence on every
               technique cell, plus a seeded-miscompile detection pass

   Run with no arguments for the main figures; pass section names to
   select (e.g. `dune exec bench/main.exe fig7 fig8 ablate`). The
   evaluation matrix fans out across a domain pool: `--jobs N` sets the
   worker count (default: GMT_JOBS or the recommended domain count);
   results are byte-identical for every N. `fig8` additionally
   simulates every cell once under the jit engine and once under the
   legacy oracle, untimed, and exits 1 unless the two results are equal
   and the jit's reproduces the matrix's metrics. It then writes
   BENCH_fig8.json with per-cell wall-clock, simulated cycles and
   counts, and one record per row for the compile stages its cells
   share.

   Three CI gates, each given alone (bench/dune folds them into @smoke):
   `--smoke` runs a tiny-fuel 3-kernel matrix through the pool plus a
   legacy-vs-jit simulator equivalence check; `--verify-matrix`
   translation-validates all 44 multi-threaded cells; `--bench-smoke
   [FILE]` validates the committed BENCH_fig8.json, re-runs the full
   matrix to re-prove every cell's committed counts, and re-proves one
   cell's legacy-vs-jit equivalence. The gmtd service and farm are
   measured by the repo benchmark (benchmark/), not here. *)

module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite
module Config = Gmt_machine.Config
module Pool = Gmt_parallel.Pool
module Obs = Gmt_obs.Obs
module Json = Gmt_obs.Json
module Sim = Gmt_machine.Sim

type row = V.row

(* A simulator entry point: the jit engine ([Sim.run]) and its oracle
   ([Gmt_machine.Legacy.run]) share this type. *)
type engine =
  ?fuel:int ->
  ?init_regs:(Gmt_ir.Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Gmt_ir.Mtprog.t ->
  mem_size:int ->
  Sim.result

let fail tag fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "[%s] FAIL: %s\n" tag s;
      exit 1)
    fmt

let jobs : int option ref = ref None
let matrix_wall = ref 0.0

let rows : row list Lazy.t =
  lazy
    (let ws = Suite.all () in
     let j = match !jobs with Some j -> j | None -> Pool.default_jobs () in
     Printf.eprintf "[bench] measuring %d x %d matrix (jobs=%d)...\n%!"
       (List.length ws)
       (List.length V.matrix_kinds)
       j;
     let t0 = Unix.gettimeofday () in
     let rs = V.run_matrix ~jobs:j ws in
     matrix_wall := Unix.gettimeofday () -. t0;
     rs)

(* Metric accessors over timed cells. *)
let st_m (r : row) = r.V.st.V.metrics
let gremio_m (r : row) = r.V.gremio.V.metrics
let gremio_coco_m (r : row) = r.V.gremio_coco.V.metrics
let dswp_m (r : row) = r.V.dswp.V.metrics
let dswp_coco_m (r : row) = r.V.dswp_coco.V.metrics

(* A row's five cells, in [V.matrix_kinds] order. *)
let timed_cells (r : row) =
  [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ]

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
let speedup st m = float_of_int st.V.cycles /. float_of_int m.V.cycles
let hr () = print_endline (String.make 78 '-')

(* ---------------------------------------------------------------- *)

let fig1 () =
  print_endline "";
  print_endline
    "Figure 1: dynamic instruction breakdown under MTCG (communication %)";
  hr ();
  Printf.printf "%-12s | %26s | %26s\n" "benchmark" "GREMIO comm/total (%)"
    "DSWP comm/total (%)";
  hr ();
  let gsum = ref 0.0 and dsum = ref 0.0 and n = ref 0 in
  List.iter
    (fun r ->
      let gm = gremio_m r and dm = dswp_m r in
      let g = pct gm.V.comm_instrs gm.V.dyn_instrs in
      let d = pct dm.V.comm_instrs dm.V.dyn_instrs in
      gsum := !gsum +. g;
      dsum := !dsum +. d;
      incr n;
      Printf.printf "%-12s | %9d/%-9d %5.1f%% | %9d/%-9d %5.1f%%\n"
        r.V.rw.W.name gm.V.comm_instrs gm.V.dyn_instrs g dm.V.comm_instrs
        dm.V.dyn_instrs d)
    (Lazy.force rows);
  hr ();
  Printf.printf "%-12s | %25.1f%% | %25.1f%%\n" "average"
    (!gsum /. float_of_int !n)
    (!dsum /. float_of_int !n);
  print_endline
    "(paper: communication reaches up to ~25% of dynamic instructions;\n\
    \ GREMIO incurs more communication than DSWP)"

let fig6 () =
  print_endline "";
  print_endline "Figure 6(a): machine configuration";
  hr ();
  Format.printf "%a@." Config.pp (Config.itanium2 ());
  print_endline "";
  print_endline "Figure 6(b): selected benchmark functions";
  hr ();
  Printf.printf "%-12s %-18s %-28s %s\n" "benchmark" "suite" "function"
    "exec%";
  List.iter
    (fun (w : W.t) ->
      Printf.printf "%-12s %-18s %-28s %d\n" w.W.name w.W.suite w.W.func_name
        w.W.exec_pct)
    (Suite.all ())

let fig7 () =
  print_endline "";
  print_endline
    "Figure 7: dynamic communication remaining after COCO (% of MTCG)";
  hr ();
  Printf.printf "%-12s | %9s | %9s | %s\n" "benchmark" "GREMIO" "DSWP"
    "GREMIO mem-syncs (MTCG -> COCO)";
  hr ();
  let gsum = ref 0.0 and dsum = ref 0.0 and n = ref 0 in
  List.iter
    (fun r ->
      let gm = gremio_m r and gcm = gremio_coco_m r in
      let dm = dswp_m r and dcm = dswp_coco_m r in
      let g = pct gcm.V.comm_instrs gm.V.comm_instrs in
      let d = pct dcm.V.comm_instrs dm.V.comm_instrs in
      gsum := !gsum +. g;
      dsum := !dsum +. d;
      incr n;
      Printf.printf "%-12s | %8.1f%% | %8.1f%% | %d -> %d\n" r.V.rw.W.name g d
        gm.V.mem_syncs gcm.V.mem_syncs)
    (Lazy.force rows);
  hr ();
  Printf.printf "%-12s | %8.1f%% | %8.1f%%\n" "average"
    (!gsum /. float_of_int !n)
    (!dsum /. float_of_int !n);
  print_endline
    "(paper: average 65.6% remaining for GREMIO / 76.2% for DSWP; largest\n\
    \ reduction ks with GREMIO, to 26.3%; adpcmenc/GREMIO had no\n\
    \ opportunity; >99% of mesa & gromacs memory syncs removed)"

(* ---------------- engine equivalence check (fig8) ---------------- *)

(* Every Fig-8 cell, compiled again as [V.run_matrix] compiles it (one
   analysis per program, one partition per technique, one codegen per
   cell) and simulated once by each engine, untimed. The two results
   must be equal — [Sim.result] is compared structurally, memory, stall
   attribution and queue peaks included — and the jit's must reproduce
   the metrics the matrix recorded for the cell. Returns each cell's
   count of memory arcs the absint disambiguator pruned from its PDG
   (0 for the single-threaded cell, which builds none), keyed by bench
   and config. *)
let check_engines rows =
  Printf.eprintf "[bench] checking %d cells: jit against legacy...\n%!"
    (List.length rows * List.length V.matrix_kinds);
  List.concat_map
    (fun (r : row) ->
      let w = r.V.rw in
      let an = V.analyze w in
      let parts =
        List.map (fun t -> (t, V.partition t an)) [ V.Gremio; V.Dswp ]
      in
      List.map2
        (fun kind (t : V.timed) ->
          let mc, p, arcs_pruned =
            match kind with
            | V.Single ->
              ( Config.itanium2 (),
                Gmt_ir.Mtprog.make ~name:w.W.func.Gmt_ir.Func.name
                  ~threads:[| w.W.func |] ~n_queues:0,
                0 )
            | V.Mt (tech, coco) ->
              let c = V.codegen ~coco (List.assoc tech parts) in
              ( V.machine_config tech,
                c.V.mtp,
                Gmt_pdg.Pdg.mem_pruned c.V.pdg )
          in
          let run (engine : engine) =
            engine ~init_regs:w.W.reference.W.regs
              ~init_mem:w.W.reference.W.mem mc p ~mem_size:w.W.mem_size
          in
          let label = w.W.name ^ "/" ^ V.cell_name kind in
          let jit = run Sim.run in
          if run Gmt_machine.Legacy.run <> jit then
            fail "bench" "%s: jit and legacy results differ" label;
          if V.metrics_of_sim jit <> t.V.metrics then
            fail "bench" "%s: jit result differs from the matrix's metrics"
              label;
          ((w.W.name, V.cell_name kind), arcs_pruned))
        V.matrix_kinds (timed_cells r))
    rows

(* The passes of a row's shared stages ({!V.run_matrix}'s phase 0),
   which no cell records. *)
let shared_passes =
  [ "validate"; "profile.train"; "pdg.absint"; "pdg.build";
    "partition.gremio"; "partition.dswp" ]

(* [x] at [digits] decimals, the precision each timing field has always
   been written at. *)
let fixed digits x =
  Json.Num (float_of_string (Printf.sprintf "%.*f" digits x))

let int n = Json.Num (float_of_int n)

(* Pass wall-clock breakdown: span durations summed by name, in order
   of first appearance (a cell runs each pass once, but keep this
   robust to repeated spans). *)
let passes_json passes =
  let order = ref [] and sums = Hashtbl.create 16 in
  List.iter
    (fun (name, ms) ->
      if not (Hashtbl.mem sums name) then order := name :: !order;
      Hashtbl.replace sums name
        (ms +. Option.value ~default:0.0 (Hashtbl.find_opt sums name)))
    passes;
  Json.Obj
    (List.rev_map (fun name -> (name, fixed 3 (Hashtbl.find sums name))) !order)

(* Per-core stall attribution, one object per core in stall-label
   order; each core's buckets sum to the cell's cycles. *)
let stalls_json (m : V.metrics) =
  Json.Arr
    (Array.to_list
       (Array.map
          (fun row ->
            Json.Obj
              (Array.to_list
                 (Array.mapi (fun b v -> (Sim.stall_labels.(b), int v)) row)))
          m.V.stall_attr))

(* Peak occupancy of every queue that held a value, keyed by index. *)
let queue_peak_json (m : V.metrics) =
  Json.Obj
    (List.concat
       (List.mapi
          (fun q v -> if v > 0 then [ (string_of_int q, int v) ] else [])
          (Array.to_list m.V.queue_peak)))

(* Write the object of [fields] with each field on a line, and each
   element of an array field on a line of its own, so a regenerated
   file diffs by record. *)
let write_by_line path fields =
  let field (k, v) =
    Json.escape k ^ ": "
    ^
    match v with
    | Json.Arr items ->
      "[\n    " ^ String.concat ",\n    " (List.map Json.to_string items)
      ^ "\n  ]"
    | v -> Json.to_string v
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ("{\n  " ^ String.concat ",\n  " (List.map field fields) ^ "\n}\n"))

(* Machine-readable perf trajectory: per-cell simulated cycles, dynamic
   communication, wall-clock, and simulated speedup vs the single-thread
   run, plus the harness-level wall-clock summary. Schema documented in
   README.md. *)
let write_fig8_json rs pruned =
  let j = match !jobs with Some j -> j | None -> Pool.default_jobs () in
  let cells =
    List.concat_map
      (fun (r : row) ->
        let st = st_m r in
        (* Static-analysis column, once per workload: the wall-clock of a
           full lint pass. [arcs_pruned] comes from the engine check's
           compile of the cell. *)
        let lint_ms =
          let t0 = Unix.gettimeofday () in
          ignore
            (Gmt_analysis.Lint.run ~mem_size:r.V.rw.W.mem_size r.V.rw.W.func);
          1e3 *. (Unix.gettimeofday () -. t0)
        in
        List.map2
          (fun kind (t : V.timed) ->
            let m = t.V.metrics in
            let cell = (r.V.rw.W.name, V.cell_name kind) in
            let sim_speedup =
              if m.V.cycles = 0 then 0.0
              else float_of_int st.V.cycles /. float_of_int m.V.cycles
            in
            Json.Obj
              [
                ("bench", Json.Str (fst cell));
                ("config", Json.Str (snd cell));
                ("cycles", int m.V.cycles);
                ("dyn_instrs", int m.V.dyn_instrs);
                ("comm_instrs", int m.V.comm_instrs);
                ("mem_syncs", int m.V.mem_syncs);
                ("arcs_pruned", int (List.assoc cell pruned));
                ("lint_ms", fixed 3 lint_ms);
                ("wall_s", fixed 6 t.V.wall_s);
                ("sim_speedup", fixed 4 sim_speedup);
                ("passes_ms", passes_json t.V.passes);
                ("stalls", stalls_json m);
                ("queue_peak", queue_peak_json m);
              ])
          V.matrix_kinds (timed_cells r))
      rs
  in
  (* One record per row for the stages its MT cells share: the
     analysis and one partition per technique. *)
  let shared =
    List.map
      (fun (r : row) ->
        Json.Obj
          [
            ("bench", Json.Str r.V.rw.W.name);
            ("wall_s", fixed 6 r.V.shared_wall_s);
            ("passes_ms", passes_json r.V.shared_passes);
          ])
      rs
  in
  let sum_cell_wall =
    List.fold_left
      (fun acc (r : row) ->
        List.fold_left
          (fun acc (t : V.timed) -> acc +. t.V.wall_s)
          acc (timed_cells r))
      0.0 rs
  in
  let sum_shared_wall =
    List.fold_left (fun acc (r : row) -> acc +. r.V.shared_wall_s) 0.0 rs
  in
  let harness_speedup =
    if !matrix_wall > 0.0 then
      (sum_cell_wall +. sum_shared_wall) /. !matrix_wall
    else 1.0
  in
  write_by_line "BENCH_fig8.json"
    [
      ("schema", Json.Str "gmt-bench-fig8/7");
      ("jobs", int j);
      ("total_wall_s", fixed 6 !matrix_wall);
      ("sum_cell_wall_s", fixed 6 sum_cell_wall);
      ("sum_shared_wall_s", fixed 6 sum_shared_wall);
      ("harness_speedup", fixed 4 harness_speedup);
      ("shared", Json.Arr shared);
      ("cells", Json.Arr cells);
    ];
  Printf.eprintf
    "[bench] BENCH_fig8.json written (total %.2fs, cells %.2fs, shared \
     %.2fs, harness speedup %.2fx)\n\
     %!"
    !matrix_wall sum_cell_wall sum_shared_wall harness_speedup

let fig8 () =
  let rows = Lazy.force rows in
  print_endline "";
  print_endline "Figure 8: speedup over single-threaded execution";
  hr ();
  Printf.printf "%-12s | %7s %7s | %7s %7s | %9s %9s\n" "benchmark" "GREMIO"
    "+COCO" "DSWP" "+COCO" "G-gain" "D-gain";
  hr ();
  let ggain = ref 0.0 and dgain = ref 0.0 and n = ref 0 in
  List.iter
    (fun r ->
      let st = st_m r in
      let g = speedup st (gremio_m r)
      and gc = speedup st (gremio_coco_m r)
      and d = speedup st (dswp_m r)
      and dc = speedup st (dswp_coco_m r) in
      let gg = 100.0 *. ((gc /. g) -. 1.0) in
      let dg = 100.0 *. ((dc /. d) -. 1.0) in
      ggain := !ggain +. gg;
      dgain := !dgain +. dg;
      incr n;
      Printf.printf "%-12s | %7.2f %7.2f | %7.2f %7.2f | %8.1f%% %8.1f%%\n"
        r.V.rw.W.name g gc d dc gg dg)
    rows;
  hr ();
  Printf.printf "%-12s | %27s | %8.1f%% %8.1f%%\n" "average"
    "(COCO gain over MTCG ->)"
    (!ggain /. float_of_int !n)
    (!dgain /. float_of_int !n);
  print_endline
    "(paper: COCO improves GREMIO speedups by 15.6% on average and DSWP by\n\
    \ 2.7%; the largest gain is ks with GREMIO, +47.6%)";
  let pruned = check_engines rows in
  Printf.printf
    "\nEngine check: Sim.run and Legacy.run agree on all %d cells, and \
     reproduce the matrix.\n"
    (List.length pruned);
  write_fig8_json rows pruned

(* ---------------------------------------------------------------- *)

let train_profile (w : W.t) =
  (Gmt_machine.Interp.run ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem
     w.W.func ~mem_size:w.W.mem_size)
    .Gmt_machine.Interp.profile

let ablate () =
  print_endline "";
  print_endline
    "Ablation: static profile estimates instead of train-input profiles";
  hr ();
  Printf.printf "%-12s | %16s | %16s\n" "benchmark" "comm (train prof)"
    "comm (static est)";
  List.iter
    (fun (w : W.t) ->
      try
        let m mode = V.measure (V.compile ~coco:true ~profile_mode:mode V.Gremio w) in
        let train = m `Train and static_ = m `Static in
        Printf.printf "%-12s | %16d | %16d\n" w.W.name train.V.comm_instrs
          static_.V.comm_instrs
      with
      | Failure msg -> Printf.printf "%-12s | failed: %s\n" w.W.name msg
      | V.Deadlock msg ->
        Printf.printf "%-12s | deadlock: %s\n" w.W.name
          (List.hd (String.split_on_char '\n' msg)))
    (Suite.all ());
  print_endline
    "(the paper notes static estimates [28] are also accurate; shapes should\n\
    \ broadly agree with the profiled run)";
  print_endline "";
  print_endline
    "Ablation: classical pre-pass optimizations (constfold/copyprop/DCE)";
  hr ();
  Printf.printf "%-12s | %14s | %14s | %10s\n" "benchmark" "instrs (plain)"
    "instrs (opt)" "speedup-opt";
  List.iter
    (fun (w : W.t) ->
      try
        let st = V.measure_single w in
        let m = V.measure (V.compile ~coco:true ~optimize:true V.Gremio w) in
        let plain = V.measure (V.compile ~coco:true V.Gremio w) in
        Printf.printf "%-12s | %14d | %14d | %9.2fx\n" w.W.name
          plain.V.dyn_instrs m.V.dyn_instrs
          (float_of_int st.V.cycles /. float_of_int m.V.cycles)
      with
      | Failure msg -> Printf.printf "%-12s | failed: %s\n" w.W.name msg
      | V.Deadlock msg ->
        Printf.printf "%-12s | deadlock: %s\n" w.W.name
          (List.hd (String.split_on_char '\n' msg)))
    (Suite.all ());
  print_endline "";
  print_endline
    "Ablation: 4 threads, GREMIO (paper Sec 6 expects larger COCO benefit)";
  hr ();
  Printf.printf "%-12s | %10s | %10s | %9s | %7s %7s\n" "benchmark"
    "comm MTCG" "comm +COCO" "remaining" "spd" "+COCO";
  List.iter
    (fun (w : W.t) ->
      try
        let st = V.measure_single w in
        let m coco = V.measure (V.compile ~n_threads:4 ~coco V.Gremio w) in
        let base = m false and coco = m true in
        Printf.printf "%-12s | %10d | %10d | %8.1f%% | %7.2f %7.2f\n" w.W.name
          base.V.comm_instrs coco.V.comm_instrs
          (pct coco.V.comm_instrs base.V.comm_instrs)
          (speedup st base) (speedup st coco)
      with
      | Failure m -> Printf.printf "%-12s | failed: %s\n" w.W.name m
      | V.Deadlock m ->
        Printf.printf "%-12s | deadlock: %s\n" w.W.name
          (List.hd (String.split_on_char '\n' m)))
    (Suite.all ())

let caches () =
  print_endline "";
  print_endline
    "Cache behaviour: single core vs DSWP on two cores (private L2s)";
  hr ();
  Printf.printf "%-12s | %22s | %22s\n" "benchmark" "ST L1/L2/L3/mem"
    "DSWP L1/L2/L3/mem";
  List.iter
    (fun name ->
      let w = Suite.find name in
      let mc = V.machine_config V.Dswp in
      let stats (r : Gmt_machine.Sim.result) =
        let t = Array.fold_left (fun (a, b, c, d) s ->
            Gmt_machine.Sim.(a + s.l1_hits, b + s.l2_hits, c + s.l3_hits,
                              d + s.mem_accesses))
            (0, 0, 0, 0) r.Gmt_machine.Sim.per_core
        in
        let a, b, c, d = t in
        Printf.sprintf "%d/%d/%d/%d" a b c d
      in
      let st =
        Gmt_machine.Sim.run_single ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc w.W.func ~mem_size:w.W.mem_size
      in
      let c = V.compile V.Dswp w in
      let mt =
        Gmt_machine.Sim.run ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc c.V.mtp ~mem_size:w.W.mem_size
      in
      Printf.printf "%-12s | %22s | %22s\n" w.W.name (stats st) (stats mt))
    [ "435.gromacs"; "183.equake"; "177.mesa" ];
  print_endline
    "(the paper attributes gromacs's DSWP speedup partly to the doubled\n\
    \ private L2 capacity across the two cores)"

(* ---------------------------------------------------------------- *)

let compile_bench () =
  print_endline "";
  print_endline
    "Compilation-phase micro-benchmarks (Bechamel, monotonic clock)";
  hr ();
  let open Bechamel in
  let open Toolkit in
  let w = Suite.find "ks" in
  let profile = train_profile w in
  let pdg = Gmt_pdg.Pdg.build w.W.func in
  let part = Gmt_sched.Gremio.partition pdg profile in
  let tests =
    Test.make_grouped ~name:"compile"
      [
        Test.make ~name:"pdg-build"
          (Staged.stage (fun () -> ignore (Gmt_pdg.Pdg.build w.W.func)));
        Test.make ~name:"gremio-partition"
          (Staged.stage (fun () ->
               ignore (Gmt_sched.Gremio.partition pdg profile)));
        Test.make ~name:"dswp-partition"
          (Staged.stage (fun () ->
               ignore (Gmt_sched.Dswp.partition pdg profile)));
        Test.make ~name:"mtcg-generate"
          (Staged.stage (fun () ->
               ignore
                 (Gmt_mtcg.Mtcg.generate pdg part
                    (Gmt_mtcg.Mtcg.baseline_plan pdg part))));
        Test.make ~name:"coco-optimize"
          (Staged.stage (fun () ->
               ignore (Gmt_coco.Coco.optimize pdg part profile)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  let items = ref [] in
  Hashtbl.iter (fun name v -> items := (name, v) :: !items) results;
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] ->
        Printf.printf "  %-28s %10.1f us/run\n" name (est /. 1e3)
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare !items);
  print_endline
    "(paper: Edmonds-Karp min-cuts did not significantly increase\n\
    \ compilation time; COCO here runs in the same order as the other\n\
    \ compilation phases)"

(* ---------------------------------------------------------------- *)

(* --smoke: a seconds-scale end-to-end pass for CI (the dune @smoke
   alias): three kernels through the full matrix on a 2-worker domain
   pool with tiny fuel, plus a legacy-vs-jit simulator equivalence
   check and a jobs-determinism check. Exits non-zero on any
   mismatch. *)
let smoke () =
  let ws = List.map Suite.find [ "adpcmdec"; "ks"; "mpeg2enc" ] in
  let fuel = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  let par = V.run_matrix ~jobs:2 ~fuel ws in
  let seq = V.run_matrix ~jobs:1 ~fuel ws in
  let fail fmt = fail "smoke" fmt in
  let strip (r : row) =
    ( r.V.rw.W.name,
      List.map (fun (t : V.timed) -> t.V.metrics) (timed_cells r) )
  in
  if List.map strip par <> List.map strip seq then
    fail "jobs=2 matrix differs from jobs=1";
  List.iter
    (fun (w : W.t) ->
      let c = V.compile V.Gremio w in
      let mc = V.machine_config V.Gremio in
      let run (engine : engine) =
        engine ~fuel ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc c.V.mtp ~mem_size:w.W.mem_size
      in
      if run Sim.run <> run Gmt_machine.Legacy.run then
        fail "%s jit/legacy results differ" w.W.name)
    ws;
  (* One traced cell through the observability layer: the emitted Chrome
     trace and metrics JSON must parse and have the expected shape, and
     the per-core stall attribution must sum to the cell's cycles. *)
  Obs.reset ();
  Obs.enable_tracing ();
  Obs.enable_metrics ();
  let w = Suite.find "ks" in
  let m = V.measure_cell ~fuel (V.Mt (V.Gremio, false)) w in
  Array.iteri
    (fun ci row ->
      let sum = Array.fold_left ( + ) 0 row in
      if sum <> m.V.cycles then
        fail "core %d stall buckets sum to %d, want cycles=%d" ci sum
          m.V.cycles)
    m.V.stall_attr;
  (match Json.parse (Obs.trace_json ()) with
  | Error e -> fail "trace JSON malformed: %s" e
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.Arr evs) ->
      let names =
        List.sort_uniq compare
          (List.filter_map
             (fun ev ->
               match (Json.member "ph" ev, Json.member "name" ev) with
               | Some (Json.Str "X"), Some (Json.Str n) -> Some n
               | _ -> None)
             evs)
      in
      if List.length names < 8 then
        fail "trace has %d distinct pass spans, want >= 8 (%s)"
          (List.length names)
          (String.concat ", " names)
    | _ -> fail "trace JSON lacks a traceEvents array"));
  (match Json.parse (Obs.metrics_json ()) with
  | Error e -> fail "metrics JSON malformed: %s" e
  | Ok j -> (
    (match Json.member "schema" j with
    | Some (Json.Str "gmt-metrics/1") -> ()
    | _ -> fail "metrics JSON lacks schema gmt-metrics/1");
    match Json.member "counters" j with
    | Some (Json.Obj counters) ->
      let get k =
        match List.assoc_opt k counters with
        | Some (Json.Num f) -> int_of_float f
        | _ -> fail "metrics JSON missing counter %S" k
      in
      let label = "ks/gremio" in
      let cycles = get (Printf.sprintf "sim.%s.cycles" label) in
      Array.iteri
        (fun ci _ ->
          let sum =
            Array.fold_left
              (fun acc lbl ->
                acc
                + get (Printf.sprintf "sim.%s.core%d.stall.%s" label ci lbl))
              0 Sim.stall_labels
          in
          if sum <> cycles then
            fail "metrics: core %d stalls sum to %d, want %d" ci sum cycles)
        m.V.stall_attr
    | _ -> fail "metrics JSON lacks a counters object"));
  Obs.reset ();
  Printf.printf
    "[smoke] ok: %d kernels x %d configs, pool jobs=2 deterministic, \
     jit==legacy, traced cell JSON valid (%.2fs)\n"
    (List.length ws)
    (List.length V.matrix_kinds)
    (Unix.gettimeofday () -. t0)

(* --verify-matrix: translation-validate every multi-threaded cell of the
   evaluation matrix (11 workloads x {GREMIO,DSWP} x {±COCO}) with the
   gmt_verify checker — no simulation, so it is seconds-scale and runs
   under CI's @verify alias (folded into @smoke). Any diagnostic on any
   cell fails the run. *)
let verify_matrix () =
  let t0 = Unix.gettimeofday () in
  let ws = Suite.all () in
  let j = match !jobs with Some j -> j | None -> Pool.default_jobs () in
  let cells =
    List.concat_map
      (fun (w : W.t) ->
        List.concat_map
          (fun tech ->
            List.map
              (fun coco () ->
                let c = V.compile ~coco ~verify:false tech w in
                ( Printf.sprintf "%s/%s" w.W.name
                    (V.cell_name (V.Mt (tech, coco))),
                  V.verify_compiled c ))
              [ false; true ])
          [ V.Gremio; V.Dswp ])
      ws
  in
  let results = Pool.run_list ~jobs:j cells in
  let bad = List.filter (fun (_, diags) -> diags <> []) results in
  List.iter
    (fun (label, diags) ->
      Printf.eprintf "[verify] FAIL %s (%d diagnostics)\n%s\n" label
        (List.length diags)
        (Gmt_verify.Verify.render diags))
    bad;
  if bad <> [] then exit 1;
  Printf.printf "[verify] ok: %d matrix cells translation-validated (%.2fs)\n"
    (List.length results)
    (Unix.gettimeofday () -. t0)

(* --bench-smoke: validate the committed BENCH_fig8.json — it must
   parse, carry the current schema, and list each of [shared_passes]
   once in its row's shared record and in no cell. Then re-prove it
   live: the full matrix, re-run sequentially, must run each shared
   pass once per row and in no cell, must reproduce every cell's
   committed cycles and dynamic instruction, communication and sync
   counts, and on one cell jit and legacy must still produce
   bit-identical results. Runs under CI's @bench-smoke alias, folded
   into @smoke. *)
let bench_smoke path =
  let t0 = Unix.gettimeofday () in
  let fail fmt = fail "bench-smoke" fmt in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read %s: %s" path e
  in
  let shared, cs =
    match Json.parse text with
    | Error e -> fail "%s malformed: %s" path e
    | Ok j -> (
      (match Json.member "schema" j with
      | Some (Json.Str "gmt-bench-fig8/7") -> ()
      | _ -> fail "%s lacks schema gmt-bench-fig8/7" path);
      match (Json.member "shared" j, Json.member "cells" j) with
      | Some (Json.Arr shared), Some (Json.Arr (_ :: _ as cs)) -> (shared, cs)
      | _ -> fail "%s lacks a shared or a cells array" path)
  in
  let ws = Suite.all () in
  let expected = List.length ws * List.length V.matrix_kinds in
  if List.length cs <> expected then
    fail "%s has %d cells, want %d" path (List.length cs) expected;
  (* Each shared stage runs once per row (a partition once per
     technique), in the row's shared record and in none of its cells. *)
  let passes_of c =
    match Json.member "passes_ms" c with
    | Some (Json.Obj ps) -> List.map fst ps
    | _ -> fail "a record lacks a passes_ms object"
  in
  let shared_by_bench =
    List.map
      (fun r ->
        match Json.member "bench" r with
        | Some (Json.Str b) -> (b, passes_of r)
        | _ -> fail "a shared record lacks bench")
      shared
  in
  let once where passes =
    List.iter
      (fun p ->
        let n = List.length (List.filter (String.equal p) passes) in
        if n <> 1 then fail "%s records %s %d times, want once" where p n)
      shared_passes
  in
  List.iter
    (fun (w : W.t) ->
      match List.filter (fun (b, _) -> b = w.W.name) shared_by_bench with
      | [ (_, passes) ] -> once (w.W.name ^ "'s shared record") passes
      | l -> fail "%s has %d shared records, want 1" w.W.name (List.length l))
    ws;
  let in_no_cell where passes =
    List.iter
      (fun p ->
        if List.mem p passes then fail "%s records %s, a shared stage" where p)
      shared_passes
  in
  List.iter (fun c -> in_no_cell "a cell" (passes_of c)) cs;
  (* The static disambiguator must actually bite: at least one MT
     cell records pruned memory arcs, and every cell carries the
     lint wall-clock column. *)
  let total_pruned =
    List.fold_left
      (fun acc c ->
        (match Json.member "lint_ms" c with
        | Some (Json.Num _) -> ()
        | _ -> fail "a cell lacks lint_ms");
        match Json.member "arcs_pruned" c with
        | Some (Json.Num n) -> acc +. n
        | _ -> fail "a cell lacks arcs_pruned")
      0.0 cs
  in
  if total_pruned <= 0.0 then fail "no cell records a positive arcs_pruned";
  let count_fields = [ "cycles"; "dyn_instrs"; "comm_instrs"; "mem_syncs" ] in
  let committed c =
    let str k =
      match Json.member k c with
      | Some (Json.Str v) -> v
      | _ -> fail "a cell lacks %s" k
    in
    ( (str "bench", str "config"),
      List.map
        (fun k ->
          match Json.member k c with
          | Some (Json.Num v) -> int_of_float v
          | _ -> fail "a cell lacks %s" k)
        count_fields )
  in
  let committed = List.map committed cs in
  List.iter
    (fun (r : row) ->
      once
        (r.V.rw.W.name ^ "'s live shared stages")
        (List.map fst r.V.shared_passes);
      List.iter2
        (fun kind (t : V.timed) ->
          let m = t.V.metrics in
          let cell = (r.V.rw.W.name, V.cell_name kind) in
          in_no_cell
            (Printf.sprintf "live %s/%s" (fst cell) (snd cell))
            (List.map fst t.V.passes);
          match List.assoc_opt cell committed with
          | None -> fail "%s/%s is not in %s" (fst cell) (snd cell) path
          | Some want ->
            let got =
              [ m.V.cycles; m.V.dyn_instrs; m.V.comm_instrs; m.V.mem_syncs ]
            in
            if m.V.fuel_exhausted || got <> want then
              fail "%s/%s: live %s = %s, committed %s" (fst cell) (snd cell)
                (String.concat "/" count_fields)
                (String.concat "/" (List.map string_of_int got))
                (String.concat "/" (List.map string_of_int want)))
        V.matrix_kinds (timed_cells r))
    (V.run_matrix ~jobs:1 ws);
  let w = Suite.find "ks" in
  let c = V.compile ~coco:true V.Gremio w in
  let mc = V.machine_config V.Gremio in
  let run (engine : engine) =
    engine ~init_regs:w.W.reference.W.regs ~init_mem:w.W.reference.W.mem mc
      c.V.mtp ~mem_size:w.W.mem_size
  in
  if run Sim.run <> run Gmt_machine.Legacy.run then
    fail "ks/gremio+coco: jit engine disagrees with legacy";
  Printf.printf
    "[bench-smoke] ok: %s schema valid, %d cells' counts re-proved, ks \
     cell jit == legacy (%.2fs)\n"
    path expected
    (Unix.gettimeofday () -. t0)

(* fuzz: the corpus-driven differential fuzzer (explicit section, like
   ablate). Every suite workload and a fixed band of generated seeds go
   through all four technique cells; the gmt_verify verdict is
   cross-checked against MT-interpreter equivalence with the
   single-threaded oracle, and any disagreement fails the run with a
   standalone .gmt repro on disk. A drop-produce injection pass then
   proves the harness actually detects miscompiles. *)
let fuzz_section () =
  let t0 = Unix.gettimeofday () in
  let module Fuzz = Gmt_frontend.Fuzz in
  let corpus =
    Fuzz.fuzz_workloads (List.map (fun (w : W.t) -> (w.W.name, w)) (Suite.all ()))
  in
  print_endline ("corpus " ^ Fuzz.render_report corpus);
  let gen = Fuzz.fuzz_seeds ~seeds:(List.init 10 (fun i -> i + 1)) () in
  print_endline ("generated " ^ Fuzz.render_report gen);
  (* Findings here are the point, not bugs: keep the repro files out of
     the working tree. *)
  let injected =
    Fuzz.fuzz_seeds ~mutate:Fuzz.Drop_produce
      ~out_dir:(Filename.get_temp_dir_name ())
      ~seeds:(List.init 3 (fun i -> i + 1))
      ()
  in
  Printf.printf "injected drop-produce: %d/%d caught\n"
    (List.length injected.Fuzz.findings)
    injected.Fuzz.tested;
  let ok =
    corpus.Fuzz.findings = [] && gen.Fuzz.findings = []
    && (injected.Fuzz.tested = 0
       || List.length injected.Fuzz.findings = injected.Fuzz.tested)
  in
  if not ok then begin
    prerr_endline "[fuzz] FAIL: see findings above";
    exit 1
  end;
  Printf.printf "[fuzz] ok: %d corpus + %d generated programs agree, \
                 injection detected (%.2fs)\n"
    corpus.Fuzz.tested gen.Fuzz.tested
    (Unix.gettimeofday () -. t0)

let trace_out : string option ref = ref None
let metrics_out : string option ref = ref None

let () =
  let parse_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" s;
      exit 2
  in
  let rec parse = function
    | [] -> []
    | "--jobs" :: n :: rest ->
      jobs := Some (parse_jobs n);
      parse rest
    | "--trace" :: f :: rest ->
      trace_out := Some f;
      parse rest
    | "--metrics" :: f :: rest ->
      metrics_out := Some f;
      parse rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs="
      ->
      jobs := Some (parse_jobs (String.sub arg 7 (String.length arg - 7)));
      parse rest
    | arg :: rest -> arg :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  if !trace_out <> None then Obs.enable_tracing ();
  if !metrics_out <> None then Obs.enable_metrics ();
  (match args with
  | [ "--smoke" ] -> smoke ()
  | [ "--verify-matrix" ] -> verify_matrix ()
  | [ "--bench-smoke" ] -> bench_smoke "BENCH_fig8.json"
  | [ "--bench-smoke"; path ] -> bench_smoke path
  | names ->
    (* A bare run prints [sections] in order; [extras] run only when
       named. *)
    let sections =
      [
        ("fig6", fig6); ("fig1", fig1); ("fig7", fig7); ("fig8", fig8);
        ("caches", caches); ("compile", compile_bench);
      ]
    and extras = [ ("ablate", ablate); ("fuzz", fuzz_section) ] in
    List.iter
      (fun n ->
        if not (List.mem_assoc n sections || List.mem_assoc n extras) then begin
          Printf.eprintf "bench: unknown section %S (known: %s)\n" n
            (String.concat ", " (List.map fst (sections @ extras)));
          exit 2
        end)
      names;
    List.iter
      (fun (n, f) -> if names = [] || List.mem n names then f ())
      sections;
    List.iter (fun (n, f) -> if List.mem n names then f ()) extras);
  Option.iter Obs.write_trace !trace_out;
  Option.iter Obs.write_metrics !metrics_out
