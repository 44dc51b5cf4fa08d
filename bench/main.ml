(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4).

     fig1    — breakdown of dynamic instructions (computation vs
               communication) under plain MTCG, for GREMIO and DSWP
     fig6    — machine configuration and benchmark-function tables
     fig7    — dynamic communication remaining after COCO (relative to
               MTCG), plus memory-synchronization removal
     fig8    — speedup over single-threaded execution, with and without
               COCO
     compile — Bechamel micro-benchmarks of compilation-phase costs
               (supporting the paper's claim that COCO's min-cuts do not
               meaningfully lengthen compilation)
     ablate  — extensions: 4-thread communication reduction, COCO without
               control-flow penalties
     fuzz    — corpus-driven differential fuzz: gmt_verify verdicts
               cross-checked against MT-interpreter equivalence on every
               technique cell, plus a seeded-miscompile detection pass
     service — gmtd daemon round-trip latency: cold compile vs
               content-addressed cache hit (with p50/p90/p99 and
               per-stage means from the telemetry plane), and
               throughput under four concurrent clients with telemetry
               on vs off; writes BENCH_service.json

   Run with no arguments for the main figures; pass section names to
   select (e.g. `dune exec bench/main.exe fig7 fig8 ablate`). The
   evaluation matrix fans out across a domain pool: `--jobs N` sets the
   worker count (default: GMT_JOBS or the recommended domain count);
   results are byte-identical for every N. `--smoke` runs a tiny-fuel
   3-kernel matrix through the pool plus a legacy-vs-jit simulator
   equivalence check (CI's @smoke alias). `--bench-smoke` validates the
   committed BENCH_fig8.json, re-runs the full matrix to re-prove every
   cell's committed counts, and re-proves one cell's legacy-vs-jit
   equivalence (CI's @bench-smoke alias, folded into @smoke).
   `--telemetry-smoke` validates the committed BENCH_service.json
   (schema, percentile ordering, the telemetry overhead gate) and lints
   a live daemon's stats/2 frame and Prometheus text (CI's @telemetry
   alias, folded into @smoke). `--farm-smoke` validates the same
   artifact's farm section (shard-scaling, single-flight collapse and
   shard-kill gates) and runs a live two-shard TCP failover drill
   (CI's @farm-smoke alias, folded into @smoke). `fig8`
   additionally times every cell's simulation under the legacy oracle
   and the jit engine and writes BENCH_fig8.json with per-cell
   wall-clock, simulated cycles, and the per-engine comparison column. *)

module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite
module Config = Gmt_machine.Config
module Pool = Gmt_parallel.Pool
module Obs = Gmt_obs.Obs
module Json = Gmt_obs.Json
module Sim = Gmt_machine.Sim

type row = V.row

(* A simulator entry point, and the two the fig8 comparison times,
   oracle first: the legacy result is the reference the jit engine is
   checked against. Their names are the [kernels] keys of
   BENCH_fig8.json. *)
type engine =
  ?fuel:int ->
  ?init_regs:(Gmt_ir.Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Gmt_ir.Mtprog.t ->
  mem_size:int ->
  Sim.result

let engines : (string * engine) list =
  [ ("legacy", Gmt_machine.Legacy.run); ("jit", Sim.run) ]

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

(* -------------- engine wall-clock comparison (fig8) -------------- *)

(* One Fig-8 cell timed under each execution engine on the same compiled
   program. The engines must agree bit-for-bit — [Sim.result] is compared
   structurally, stall attribution and queue peaks included — so the only
   visible difference is wall clock. Compilation happens once, outside
   the timed region: this measures [Sim.run] alone. *)
type kcell = {
  kc_bench : string;
  kc_config : string;
  kc_wall : (string * float) list;  (* engine name -> seconds *)
}

let time_thunk f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let kernel_compare_cells ws =
  Printf.eprintf "[bench] timing %d cells under %d engines...\n%!"
    (List.length ws * List.length V.matrix_kinds)
    (List.length engines);
  List.concat_map
    (fun (w : W.t) ->
      List.map
        (fun kind ->
          let mc, p =
            match kind with
            | V.Single ->
              ( Config.itanium2 (),
                Gmt_ir.Mtprog.make ~name:w.W.func.Gmt_ir.Func.name
                  ~threads:[| w.W.func |] ~n_queues:0 )
            | V.Mt (tech, coco) ->
              (V.machine_config tech, (V.compile ~coco tech w).V.mtp)
          in
          let run (engine : engine) =
            engine ~init_regs:w.W.reference.W.regs
              ~init_mem:w.W.reference.W.mem mc p ~mem_size:w.W.mem_size
          in
          (* Wall clock is the min over three runs — the simulator is
             deterministic, so spread between runs is allocator/GC
             noise, and the min is the cleanest estimate of the engine's
             cost. *)
          let reps = 3 in
          let timed =
            List.map
              (fun (kn, engine) ->
                let r0, s0 = time_thunk (fun () -> run engine) in
                let best = ref s0 in
                for _ = 2 to reps do
                  let r, s = time_thunk (fun () -> run engine) in
                  if r <> r0 then begin
                    Printf.eprintf
                      "[bench] FAIL: %s/%s: %s engine nondeterministic\n"
                      w.W.name (V.cell_name kind) kn;
                    exit 1
                  end;
                  if s < !best then best := s
                done;
                (kn, r0, !best))
              engines
          in
          (match timed with
          | (_, reference, _) :: rest ->
            List.iter
              (fun (kn, r, _) ->
                if r <> reference then begin
                  Printf.eprintf
                    "[bench] FAIL: %s/%s: %s engine disagrees with legacy\n"
                    w.W.name (V.cell_name kind) kn;
                  exit 1
                end)
              rest
          | [] -> ());
          {
            kc_bench = w.W.name;
            kc_config = V.cell_name kind;
            kc_wall = List.map (fun (kn, _, s) -> (kn, s)) timed;
          })
        V.matrix_kinds)
    ws

let geomean = function
  | [] -> 1.0
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* Geometric-mean jit-vs-legacy [Sim.run] speedup across all cells. *)
let kernel_geomean kcells =
  geomean
    (List.filter_map
       (fun kc ->
         match
           ( List.assoc_opt "legacy" kc.kc_wall,
             List.assoc_opt "jit" kc.kc_wall )
         with
         | Some l, Some j when j > 0.0 && l > 0.0 -> Some (l /. j)
         | _ -> None)
       kcells)

(* Machine-readable perf trajectory: per-cell simulated cycles, dynamic
   communication, wall-clock, and simulated speedup vs the single-thread
   run, plus the per-engine comparison column and the harness-level
   wall-clock summary. Schema documented in README.md. *)
let write_fig8_json rs kcells =
  let j = match !jobs with Some j -> j | None -> Pool.default_jobs () in
  let buf = Buffer.create 4096 in
  (* Pass wall-clock breakdown: aggregate span durations by name (a cell
     runs each pass once, but keep this robust to repeated spans). *)
  let passes_json (t : V.timed) =
    let order = ref [] and sums = Hashtbl.create 16 in
    List.iter
      (fun (name, ms) ->
        if not (Hashtbl.mem sums name) then order := name :: !order;
        Hashtbl.replace sums name
          (ms +. Option.value ~default:0.0 (Hashtbl.find_opt sums name)))
      t.V.passes;
    String.concat ", "
      (List.rev_map
         (fun name ->
           Printf.sprintf "%s: %.3f" (Json.escape name)
             (Hashtbl.find sums name))
         !order)
  in
  (* Per-core stall attribution, one object per core in stall-label
     order; each core's buckets sum to the cell's cycles. *)
  let stalls_json (m : V.metrics) =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun row ->
              "{"
              ^ String.concat ", "
                  (Array.to_list
                     (Array.mapi
                        (fun b v ->
                          Printf.sprintf "%S: %d" Sim.stall_labels.(b) v)
                        row))
              ^ "}")
            m.V.stall_attr))
  in
  let queue_peak_json (m : V.metrics) =
    let nz = ref [] in
    Array.iteri
      (fun q v -> if v > 0 then nz := Printf.sprintf "\"%d\": %d" q v :: !nz)
      m.V.queue_peak;
    String.concat ", " (List.rev !nz)
  in
  (* Per-engine wall-clock column from the legacy-vs-jit comparison. *)
  let kernels_json bench config =
    match
      List.find_opt
        (fun kc -> kc.kc_bench = bench && kc.kc_config = config)
        kcells
    with
    | None -> ""
    | Some kc ->
      Printf.sprintf ", \"kernels\": {%s}"
        (String.concat ", "
           (List.map
              (fun (kn, s) -> Printf.sprintf "%S: %.6f" kn s)
              kc.kc_wall))
  in
  let cells =
    List.concat_map
      (fun (r : row) ->
        let st = st_m r in
        (* Static-analysis columns, once per workload: memory arcs the
           absint disambiguator prunes from the PDG (the MT cells all
           compile from that pruned PDG; the single-thread cell never
           builds one, so it records 0) and the wall-clock of a full
           lint pass. *)
        let arcs_pruned =
          Gmt_pdg.Pdg.mem_pruned
            (Gmt_pdg.Pdg.build ~prune_mem:r.V.rw.W.mem_size r.V.rw.W.func)
        in
        let lint_ms =
          let t0 = Unix.gettimeofday () in
          ignore
            (Gmt_analysis.Lint.run ~mem_size:r.V.rw.W.mem_size r.V.rw.W.func);
          1e3 *. (Unix.gettimeofday () -. t0)
        in
        List.map2
          (fun kind (t : V.timed) ->
            let m = t.V.metrics in
            let sim_speedup =
              if m.V.cycles = 0 then 0.0
              else float_of_int st.V.cycles /. float_of_int m.V.cycles
            in
            Printf.sprintf
              "    {\"bench\": %S, \"config\": %S, \"cycles\": %d, \
               \"dyn_instrs\": %d, \"comm_instrs\": %d, \"mem_syncs\": %d, \
               \"arcs_pruned\": %d, \"lint_ms\": %.3f, \
               \"wall_s\": %.6f, \"sim_speedup\": %.4f, \
               \"passes_ms\": {%s}, \"stalls\": [%s], \"queue_peak\": {%s}%s}"
              r.V.rw.W.name (V.cell_name kind) m.V.cycles m.V.dyn_instrs
              m.V.comm_instrs m.V.mem_syncs
              (match kind with V.Single -> 0 | V.Mt _ -> arcs_pruned)
              lint_ms t.V.wall_s sim_speedup
              (passes_json t) (stalls_json m) (queue_peak_json m)
              (kernels_json r.V.rw.W.name (V.cell_name kind)))
          V.matrix_kinds
          [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ])
      rs
  in
  let sum_cell_wall =
    List.fold_left
      (fun acc (r : row) ->
        List.fold_left
          (fun acc (t : V.timed) -> acc +. t.V.wall_s)
          acc
          [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ])
      0.0 rs
  in
  let harness_speedup =
    if !matrix_wall > 0.0 then sum_cell_wall /. !matrix_wall else 1.0
  in
  let kgeo = kernel_geomean kcells in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"gmt-bench-fig8/5\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" j);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_s\": %.6f,\n" !matrix_wall);
  Buffer.add_string buf
    (Printf.sprintf "  \"sum_cell_wall_s\": %.6f,\n" sum_cell_wall);
  Buffer.add_string buf
    (Printf.sprintf "  \"harness_speedup\": %.4f,\n" harness_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"kernel_geomean_speedup\": %.4f,\n" kgeo);
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf (String.concat ",\n" cells);
  Buffer.add_string buf "\n  ]\n}\n";
  (match Json.parse (Buffer.contents buf) with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "[bench] BENCH_fig8.json would be malformed: %s\n" e;
    exit 1);
  let oc = open_out "BENCH_fig8.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf
    "[bench] BENCH_fig8.json written (total %.2fs, cells %.2fs, harness \
     speedup %.2fx, jit-vs-legacy geomean %.2fx)\n\
     %!"
    !matrix_wall sum_cell_wall harness_speedup kgeo

let fig8 () =
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
    (Lazy.force rows);
  hr ();
  Printf.printf "%-12s | %27s | %8.1f%% %8.1f%%\n" "average"
    "(COCO gain over MTCG ->)"
    (!ggain /. float_of_int !n)
    (!dgain /. float_of_int !n);
  print_endline
    "(paper: COCO improves GREMIO speedups by 15.6% on average and DSWP by\n\
    \ 2.7%; the largest gain is ks with GREMIO, +47.6%)";
  let kcells = kernel_compare_cells (List.map (fun r -> r.V.rw) (Lazy.force rows)) in
  print_endline "";
  print_endline
    "Execution-engine comparison: Sim.run wall-clock per cell (identical \
     results)";
  hr ();
  Printf.printf "%-12s %-12s | %10s %10s | %8s\n" "benchmark" "config"
    "legacy(ms)" "jit(ms)" "jit-gain";
  hr ();
  List.iter
    (fun kc ->
      let ms kn = 1e3 *. Option.value ~default:0.0 (List.assoc_opt kn kc.kc_wall) in
      let l = ms "legacy" and j = ms "jit" in
      Printf.printf "%-12s %-12s | %10.2f %10.2f | %7.1fx\n" kc.kc_bench
        kc.kc_config l j
        (if j > 0.0 then l /. j else 0.0))
    kcells;
  hr ();
  Printf.printf "geomean jit-vs-legacy speedup: %.2fx (floor: 5.00x)\n"
    (kernel_geomean kcells);
  write_fig8_json (Lazy.force rows) kcells

(* ---------------------------------------------------------------- *)

let train_profile (w : W.t) =
  (Gmt_machine.Interp.run ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem
     w.W.func ~mem_size:w.W.mem_size)
    .Gmt_machine.Interp.profile

let comm_of_plan (w : W.t) ~n_threads ~coco ~control_penalty =
  let profile = train_profile w in
  let pdg = Gmt_pdg.Pdg.build w.W.func in
  let part = Gmt_sched.Gremio.partition ~n_threads pdg profile in
  let plan =
    if coco then fst (Gmt_coco.Coco.optimize ~control_penalty pdg part profile)
    else Gmt_mtcg.Mtcg.baseline_plan pdg part
  in
  let mtp = Gmt_mtcg.Mtcg.generate pdg part plan in
  let mt =
    Gmt_machine.Mt_interp.run ~init_regs:w.W.reference.W.regs
      ~init_mem:w.W.reference.W.mem mtp ~queue_capacity:32
      ~mem_size:w.W.mem_size
  in
  if mt.Gmt_machine.Mt_interp.deadlocked then failwith "deadlock";
  Gmt_machine.Mt_interp.total_comm mt

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
    "Ablation: loop-invariant offset disambiguation (paper Sec 4's\n\
    \ 'more powerful memory disambiguation' direction), DSWP";
  hr ();
  Printf.printf "%-12s | %12s | %12s\n" "benchmark" "mem arcs" "mem arcs+dis";
  List.iter
    (fun (w : W.t) ->
      let count dis =
        let pdg = Gmt_pdg.Pdg.build ~disambiguate_offsets:dis w.W.func in
        List.length
          (List.filter
             (fun (a : Gmt_pdg.Pdg.arc) ->
               match a.Gmt_pdg.Pdg.kind with
               | Gmt_pdg.Pdg.Mem _ -> true
               | _ -> false)
             (Gmt_pdg.Pdg.arcs pdg))
      in
      Printf.printf "%-12s | %12d | %12d\n" w.W.name (count false) (count true))
    (Suite.all ());
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
    "Ablation: COCO without control-flow penalties (Sec 3.1.2), GREMIO";
  hr ();
  Printf.printf "%-12s | %16s | %16s\n" "benchmark" "comm w/ penalty"
    "comm w/o penalty";
  List.iter
    (fun (w : W.t) ->
      try
        let with_p =
          comm_of_plan w ~n_threads:2 ~coco:true ~control_penalty:true
        in
        let without =
          comm_of_plan w ~n_threads:2 ~coco:true ~control_penalty:false
        in
        Printf.printf "%-12s | %16d | %16d\n" w.W.name with_p without
      with
      | Failure m -> Printf.printf "%-12s | failed: %s\n" w.W.name m
      | V.Deadlock m ->
        Printf.printf "%-12s | deadlock: %s\n" w.W.name
          (List.hd (String.split_on_char '\n' m)))
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
  let strip (r : row) =
    ( r.V.rw.W.name,
      List.map
        (fun (t : V.timed) -> t.V.metrics)
        [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ] )
  in
  if List.map strip par <> List.map strip seq then begin
    prerr_endline "[smoke] FAIL: jobs=2 matrix differs from jobs=1";
    exit 1
  end;
  List.iter
    (fun (w : W.t) ->
      let c = V.compile V.Gremio w in
      let mc = V.machine_config V.Gremio in
      let run (engine : engine) =
        engine ~fuel ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc c.V.mtp ~mem_size:w.W.mem_size
      in
      if run Sim.run <> run Gmt_machine.Legacy.run then begin
        Printf.eprintf "[smoke] FAIL: %s jit/legacy results differ\n" w.W.name;
        exit 1
      end)
    ws;
  (* One traced cell through the observability layer: the emitted Chrome
     trace and metrics JSON must parse and have the expected shape, and
     the per-core stall attribution must sum to the cell's cycles. *)
  let fail fmt = Printf.ksprintf (fun s ->
      Printf.eprintf "[smoke] FAIL: %s\n" s;
      exit 1) fmt
  in
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
   parse, carry the current schema, record in every cell a wall-clock
   entry for exactly the [engines], and record a jit-vs-legacy geomean
   at or above the 5x floor. Then re-prove it live: the full matrix,
   re-run sequentially, must reproduce every cell's committed cycles and
   dynamic instruction, communication and sync counts, and on one cell
   jit and legacy must still produce bit-identical results. Runs under
   CI's @bench-smoke alias, folded into @smoke. *)
let bench_smoke path =
  let t0 = Unix.gettimeofday () in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[bench-smoke] FAIL: %s\n" s;
        exit 1)
      fmt
  in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read %s: %s" path e
  in
  let cs =
    match Json.parse text with
    | Error e -> fail "%s malformed: %s" path e
    | Ok j -> (
      (match Json.member "schema" j with
      | Some (Json.Str "gmt-bench-fig8/5") -> ()
      | _ -> fail "%s lacks schema gmt-bench-fig8/5" path);
      (match Json.member "kernel_geomean_speedup" j with
      | Some (Json.Num g) when g >= 5.0 -> ()
      | Some (Json.Num g) ->
        fail "recorded jit-vs-legacy geomean %.2fx is below the 5x floor" g
      | _ -> fail "%s lacks kernel_geomean_speedup" path);
      match Json.member "cells" j with
      | Some (Json.Arr (_ :: _ as cs)) -> cs
      | _ -> fail "%s lacks a cells array" path)
  in
  let want = List.sort compare (List.map fst engines) in
  List.iter
    (fun c ->
      match Json.member "kernels" c with
      | Some (Json.Obj ks) ->
        let got = List.sort compare (List.map fst ks) in
        if got <> want then
          fail "a cell's kernels are {%s}, want exactly {%s}"
            (String.concat ", " got) (String.concat ", " want)
      | _ -> fail "a cell lacks a kernels object")
    cs;
  let ws = Suite.all () in
  let expected = List.length ws * List.length V.matrix_kinds in
  if List.length cs <> expected then
    fail "%s has %d cells, want %d" path (List.length cs) expected;
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
      List.iter2
        (fun kind (t : V.timed) ->
          let m = t.V.metrics in
          let cell = (r.V.rw.W.name, V.cell_name kind) in
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
        V.matrix_kinds
        [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ])
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
    "[bench-smoke] ok: %s schema valid, geomean floor met, %d cells' \
     counts re-proved, ks cell identical across %d engines (%.2fs)\n"
    path expected (List.length engines)
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

(* service: round-trip latency against an in-process gmtd daemon, using
   check requests — the op whose cost IS the compile: a cold check runs
   the full pipeline plus the translation validator, a warm one serves
   the stored artifact and its verdict from the content-addressed cache
   (run requests re-simulate by design, so their cached gain is only the
   compile share). Every warm round-trip also lands in a client-side
   gmt_telemetry histogram, so each cell reports p50/p90/p99 next to the
   mean, and per-stage means are read back from the daemon's own
   stage.* histograms. The hammer phase (four concurrent clients on
   cached cells) runs twice — against the telemetry-on daemon, then
   against a fresh one started with telemetry off — and records the
   throughput ratio, the artifact the overhead gate in
   --telemetry-smoke checks. Results land in BENCH_service.json
   (schema gmt-bench-service/3, self-parsed before writing, like
   BENCH_fig8.json). *)

(* ----------------------------- farm bench -------------------------- *)

(* gmt_farm: the sharded compile farm. Three phases, recorded under the
   "farm" key of BENCH_service.json and gated by --farm-smoke:

   - scaling: a mixed hit/miss hammer — four clients with disjoint
     6-key subsets of a 24-fingerprint working set against farms of 1,
     2 and 4 shards whose per-shard LRU holds only 16 artifacts. One
     shard cannot hold the working set and thrashes (nearly every
     request recompiles); two shards already partition it (the ring
     splits the keys, 2 x 16 >= 24), so the same hammer runs all-warm.
     On a one-core host the speedup is capacity partitioning, not CPU
     parallelism — which is the farm's actual claim: aggregate cache,
     not aggregate cores.
   - singleflight: eight clients released by a barrier onto one cold
     fingerprint; the collapse share is read back from the daemon's own
     flight counters and compile-stage histogram.
   - failover: warm a 4-shard farm, wait for every artifact's replica
     to land on its ring successor, kill one shard, re-run the full
     working set and compare hit rates. *)
let farm_bench () =
  let module Server = Gmt_service.Server in
  let module Client = Gmt_service.Client in
  let module Render = Gmt_service.Render in
  let module Cache = Gmt_cache.Cache in
  let module Registry = Gmt_telemetry.Registry in
  let module H = Gmt_telemetry.Histogram in
  let module Text = Gmt_frontend.Text in
  let module Gen = Gmt_frontend.Gen in
  let module Farm = Gmt_farm.Farm in
  let module Router = Gmt_farm.Router in
  let module Ring = Gmt_farm.Ring in
  let module Shard = Gmt_farm.Shard in
  print_endline "";
  print_endline "gmt_farm: shard scaling, single-flight, shard kill";
  hr ();
  let socket_counter = ref 0 in
  let fresh_socket tag =
    incr socket_counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmtd-farm-%s-%d-%d.sock" tag (Unix.getpid ())
         !socket_counter)
  in
  let working_set = 24 and capacity = 16 and n_clients = 4 and rounds = 4 in
  (* 24 distinct synthetic kernels, ~120 instructions each: heavy
     enough that a recompile dwarfs a warm round-trip, light enough
     that the one-shard thrash column stays seconds-scale. *)
  let cells =
    List.init working_set (fun k ->
        let w =
          Gen.workload
            ~name:(Printf.sprintf "farm%02d" k)
            (List.init 120 (fun i ->
                 Gen.Arith
                   ( (i + k) mod Array.length Gen.ops,
                     ((i * 3) + k) mod Gen.n_pool,
                     (i + (2 * k) + 1) mod Gen.n_pool,
                     ((i * 5) + k + 2) mod Gen.n_pool )))
        in
        let gmt = Text.print w in
        let key =
          Farm.compile_key ~technique:V.Dswp ~coco:false ~threads:2
            ~canonical:gmt
        in
        let req =
          Client.check_request ~gmt ~technique:"dswp" ~coco:false ~threads:2
            ()
        in
        (key, req))
  in
  let start_farm ~tag ~capacity n =
    let socks =
      List.init n (fun i ->
          (Printf.sprintf "s%d" i, fresh_socket (Printf.sprintf "%s%d" tag i)))
    in
    let shards =
      List.map
        (fun (nm, sock) ->
          ( nm,
            Shard.start
              {
                Shard.server =
                  {
                    (Server.default_config ~socket:sock) with
                    Server.jobs = n_clients;
                    mem_capacity = capacity;
                  };
                self = nm;
                peers = socks;
              } ))
        socks
    in
    let farm =
      Farm.create ~cooldown:5.0
        (List.map
           (fun (nm, sock) -> { Router.name = nm; endpoint = sock })
           socks)
    in
    (shards, farm)
  in
  let farm_request farm ~key req =
    match Farm.request farm ~key req with
    | Ok (o, _) when o.Render.code = 0 -> o
    | Ok (o, _) ->
      Printf.eprintf "[farm] request failed (exit %d):\n%s" o.Render.code
        o.Render.err;
      exit 1
    | Error `No_shard ->
      prerr_endline "[farm] no shard reachable";
      exit 1
    | Error (`Busy m) | Error (`Protocol m) ->
      Printf.eprintf "[farm] request failed: %s\n" m;
      exit 1
  in
  (* Phase 1: capacity-partitioned scaling. *)
  let subsets =
    List.init n_clients (fun c ->
        List.filteri (fun i _ -> i / (working_set / n_clients) = c) cells)
  in
  Printf.printf "%-7s | %9s | %8s | %8s\n" "shards" "req/s" "hit rate"
    "speedup";
  hr ();
  let scaling =
    List.map
      (fun n ->
        let shards, farm =
          start_farm ~tag:(Printf.sprintf "x%d" n) ~capacity n
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun (_, s) -> Shard.stop s) shards)
        @@ fun () ->
        (* Untimed warm pass: the timed window measures steady state
           (which at one shard still thrashes — that is the point). *)
        List.iter
          (fun (key, req) -> ignore (farm_request farm ~key req))
          cells;
        let hits = Atomic.make 0 and total = Atomic.make 0 in
        let t0 = Unix.gettimeofday () in
        let doms =
          List.map
            (fun subset ->
              Domain.spawn (fun () ->
                  for _ = 1 to rounds do
                    List.iter
                      (fun (key, req) ->
                        let o = farm_request farm ~key req in
                        Atomic.incr total;
                        if o.Render.cache_status = "hit" then
                          Atomic.incr hits)
                      subset
                  done))
            subsets
        in
        List.iter Domain.join doms;
        let s = Unix.gettimeofday () -. t0 in
        let rps = float_of_int (Atomic.get total) /. s in
        let hit_rate =
          float_of_int (Atomic.get hits) /. float_of_int (Atomic.get total)
        in
        (n, rps, hit_rate))
      [ 1; 2; 4 ]
  in
  let rps1 =
    match scaling with (1, r, _) :: _ -> r | _ -> assert false
  in
  let scaling = List.map (fun (n, r, h) -> (n, r, h, r /. rps1)) scaling in
  List.iter
    (fun (n, r, h, sp) ->
      Printf.printf "%7d | %9.1f | %8.2f | %7.1fx\n" n r h sp)
    scaling;
  (* Phase 2: single-flight collapse on one cold fingerprint. *)
  let sf_clients = 8 in
  let flood =
    Gen.workload ~name:"farmflood"
      (List.init 400 (fun i ->
           Gen.Arith
             ( i mod Array.length Gen.ops,
               i mod Gen.n_pool,
               (i + 1) mod Gen.n_pool,
               (i + 2) mod Gen.n_pool )))
  in
  let sf_socket = fresh_socket "sf" in
  let sf_cfg =
    {
      (Server.default_config ~socket:sf_socket) with
      Server.jobs = sf_clients;
    }
  in
  let srv = Server.start sf_cfg in
  let sf_leads, sf_waits, sf_compiles =
    Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
    let gmt = Text.print flood in
    let req =
      Client.check_request ~gmt ~technique:"dswp" ~coco:true ~threads:4 ()
    in
    let entered = Atomic.make 0 in
    let doms =
      List.init sf_clients (fun _ ->
          Domain.spawn (fun () ->
              (* Barrier: all eight requests hit the daemon together. *)
              Atomic.incr entered;
              while Atomic.get entered < sf_clients do
                Domain.cpu_relax ()
              done;
              match Client.request ~socket:sf_socket req with
              | Ok o when o.Render.code = 0 -> o.Render.out
              | Ok o ->
                Printf.eprintf "[farm] flight request exited %d\n"
                  o.Render.code;
                exit 1
              | Error _ ->
                prerr_endline "[farm] flight request failed";
                exit 1))
    in
    let replies = List.map Domain.join doms in
    (match replies with
    | first :: rest ->
      if List.exists (fun r -> r <> first) rest then begin
        prerr_endline "[farm] coalesced replies are not byte-identical";
        exit 1
      end
    | [] -> ());
    match Server.registry srv with
    | None ->
      prerr_endline "[farm] telemetry on but no registry";
      exit 1
    | Some reg ->
      let counter name =
        match Registry.find_counter reg name with
        | Some c -> Registry.counter_value c
        | None -> 0
      in
      let compiles =
        match Registry.find_histogram reg "stage.req.compile" with
        | Some h -> H.count h
        | None -> 0
      in
      ( counter "farm.singleflight.leads",
        counter "farm.singleflight.waits",
        compiles )
  in
  let collapse =
    float_of_int (sf_clients - sf_compiles)
    /. float_of_int (sf_clients - 1)
  in
  Printf.printf
    "single-flight: %d clients on one cold key — %d lead(s), %d wait(s), \
     %d compile(s), %.0f%% of duplicate misses collapsed\n"
    sf_clients sf_leads sf_waits sf_compiles (100.0 *. collapse);
  (* Phase 3: shard-kill drill at four shards. Capacity is doubled
     here: ring ownership is skewed, so at 16 a heavily-owning shard's
     successor sheds replicas under its own compile pressure (replicas
     are evicted first by design) — the drill measures replication,
     not capacity pressure, so every replica must be able to stay
     resident. *)
  let kill_capacity = 2 * capacity in
  let shards, farm = start_farm ~tag:"kill" ~capacity:kill_capacity 4 in
  let stopped = ref [] in
  let pre, post =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (nm, s) -> if not (List.mem nm !stopped) then Shard.stop s)
          shards)
    @@ fun () ->
    List.iter (fun (key, req) -> ignore (farm_request farm ~key req)) cells;
    (* Replication is asynchronous and best-effort; the drill only
       makes sense once every artifact's replica has landed. *)
    let ring = Router.ring (Farm.router farm) in
    let shard_cache nm = Server.cache (Shard.server (List.assoc nm shards)) in
    let deadline = Unix.gettimeofday () +. 30.0 in
    List.iter
      (fun (key, _) ->
        match Ring.successors ring key 2 with
        | _owner :: succ :: _ ->
          while
            Cache.find (shard_cache succ) key = None
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          if Cache.find (shard_cache succ) key = None then begin
            Printf.eprintf "[farm] a replica never landed on %s\n" succ;
            exit 1
          end
        | _ ->
          prerr_endline "[farm] ring has no successor";
          exit 1)
      cells;
    let pass () =
      let hits = ref 0 in
      List.iter
        (fun (key, req) ->
          if (farm_request farm ~key req).Render.cache_status = "hit" then
            incr hits)
        cells;
      float_of_int !hits /. float_of_int working_set
    in
    let pre = pass () in
    Shard.stop (List.assoc "s0" shards);
    stopped := [ "s0" ];
    (pre, pass ())
  in
  Printf.printf
    "shard kill: 4 shards, %d keys — hit rate %.2f before, %.2f after \
     killing s0\n"
    working_set pre post;
  let speedup n =
    match List.find_opt (fun (m, _, _, _) -> m = n) scaling with
    | Some (_, _, _, sp) -> sp
    | None -> assert false
  in
  if
    speedup 2 < 1.7 || speedup 4 < 3.0 || collapse < 0.9
    || post < pre -. 0.10
  then begin
    Printf.eprintf
      "[farm] FAIL: a farm gate missed (x2 %.2f, x4 %.2f, collapse %.2f, \
       hit rate %.2f -> %.2f)\n"
      (speedup 2) (speedup 4) collapse pre post;
    exit 1
  end;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "  \"farm\": {\n";
  Printf.bprintf buf
    "    \"working_set\": %d, \"shard_capacity\": %d, \"clients\": %d, \
     \"rounds\": %d,\n"
    working_set capacity n_clients rounds;
  Buffer.add_string buf "    \"scaling\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (n, r, h, sp) ->
            Printf.sprintf
              "      {\"shards\": %d, \"req_per_s\": %.1f, \"hit_rate\": \
               %.3f, \"speedup\": %.2f}"
              n r h sp)
          scaling));
  Buffer.add_string buf "\n    ],\n";
  Printf.bprintf buf
    "    \"singleflight\": {\"clients\": %d, \"leads\": %d, \"waits\": %d, \
     \"compiles\": %d, \"collapse_share\": %.3f},\n"
    sf_clients sf_leads sf_waits sf_compiles collapse;
  Printf.bprintf buf
    "    \"failover\": {\"shards\": 4, \"shard_capacity\": %d, \"keys\": \
     %d, \"pre_kill_hit_rate\": %.3f, \"post_kill_hit_rate\": %.3f}\n"
    kill_capacity working_set pre post;
  Buffer.add_string buf "  }";
  Buffer.contents buf

let service_bench () =
  let module Server = Gmt_service.Server in
  let module Client = Gmt_service.Client in
  let module Cache = Gmt_cache.Cache in
  let module Text = Gmt_frontend.Text in
  let module H = Gmt_telemetry.Histogram in
  let module Registry = Gmt_telemetry.Registry in
  let module Trace = Gmt_telemetry.Trace in
  print_endline "";
  print_endline "gmtd service: cold compile vs artifact-cache hit";
  hr ();
  let j = match !jobs with Some j -> j | None -> Pool.default_jobs () in
  let socket_for tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmtd-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let request ~socket req =
    match Client.request ~socket req with
    | Ok o when o.Gmt_service.Render.code = 0 -> o
    | Ok o ->
      Printf.eprintf "[service] request failed (exit %d):\n%s"
        o.Gmt_service.Render.code o.Gmt_service.Render.err;
      exit 1
    | Error _ ->
      prerr_endline "[service] daemon unreachable";
      exit 1
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let warm_rounds = 20 in
  let cells =
    [ ("ks", "gremio", false); ("ks", "dswp", true);
      ("adpcmdec", "gremio", true); ("mpeg2enc", "dswp", false) ]
  in
  let req_of (name, tech, coco) =
    let gmt = Text.print (Suite.find name) in
    Client.check_request ~gmt ~technique:tech ~coco ~threads:2 ()
  in
  let n_clients = List.length cells in
  let per_client = 50 in
  (* Four clients, each re-requesting its (cached) cell: one timed
     hammer round. *)
  let hammer ~socket =
    let clients =
      List.map
        (fun cell ->
          let req = req_of cell in
          Domain.spawn (fun () ->
              for _ = 1 to per_client do
                ignore (request ~socket req)
              done))
        cells
    in
    let _, s = time (fun () -> List.iter Domain.join clients) in
    float_of_int (n_clients * per_client) /. s
  in
  (* One telemetry-on daemon (per-cell latency distributions, per-stage
     means) and one telemetry-off daemon, both alive together so the
     hammer rounds can interleave. The overhead ratio is the median of
     per-pair ratios with the order alternating inside each pair —
     sequential hammers (and even paired best-of-N) measured the ratio
     swinging 20% either way with the slow drift of a shared one-core
     host; pairing cancels the common mode, the same estimator the
     pool bench settled on. *)
  let socket = socket_for "on" in
  let cfg = { (Server.default_config ~socket) with Server.jobs = j } in
  let srv = Server.start cfg in
  let socket_off = socket_for "off" in
  let cfg_off =
    {
      (Server.default_config ~socket:socket_off) with
      Server.jobs = j;
      Server.telemetry = false;
    }
  in
  let srv_off = Server.start cfg_off in
  let rows, stage_means, cache_s, rps_on, rps_off, overhead =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Server.stop srv_off)
    @@ fun () ->
    Printf.printf "%-12s %-8s %5s | %9s | %9s | %9s | %8s\n" "benchmark"
      "tech" "coco" "cold (ms)" "hit (ms)" "p99 (ms)" "speedup";
    hr ();
    let rows =
      List.map
        (fun ((name, tech, coco) as cell) ->
          let req = req_of cell in
          let cold_o, cold_s = time (fun () -> request ~socket req) in
          if cold_o.Gmt_service.Render.cache_status <> "miss" then begin
            Printf.eprintf "[service] cold request for %s was not a miss\n"
              name;
            exit 1
          end;
          let h = H.create () in
          for _ = 1 to warm_rounds do
            let o, dt = time (fun () -> request ~socket req) in
            if o.Gmt_service.Render.cache_status <> "hit" then begin
              Printf.eprintf "[service] warm request for %s missed\n" name;
              exit 1
            end;
            H.record h (int_of_float ((1e6 *. dt) +. 0.5))
          done;
          let hit_us = H.mean h in
          let ratio = if hit_us > 0.0 then 1e6 *. cold_s /. hit_us else 0.0 in
          Printf.printf "%-12s %-8s %5b | %9.2f | %9.3f | %9.3f | %7.1fx\n"
            name tech coco (1e3 *. cold_s) (hit_us /. 1e3)
            (float_of_int (H.quantile h 0.99) /. 1e3)
            ratio;
          (name, tech, coco, cold_s, h, ratio))
        cells
    in
    (* Warm the off daemon's cache with one cold round per cell, then
       settle the major-GC debt the (asymmetric) latency phase left
       behind — the daemons share the bench process. *)
    List.iter
      (fun cell -> ignore (request ~socket:socket_off (req_of cell)))
      cells;
    Gc.compact ();
    let pairs =
      List.map
        (fun i ->
          if i mod 2 = 0 then
            let on = hammer ~socket in
            (on, hammer ~socket:socket_off)
          else
            let off = hammer ~socket:socket_off in
            (hammer ~socket, off))
        [ 1; 2; 3; 4; 5; 6; 7 ]
    in
    let best take =
      List.fold_left (fun a p -> Float.max a (take p)) 0.0 pairs
    in
    let rps_on = best fst and rps_off = best snd in
    let ratios =
      List.sort Float.compare
        (List.map (fun (on, off) -> off /. on) pairs)
    in
    let overhead = List.nth ratios (List.length ratios / 2) in
    let stage_means =
      match Server.registry srv with
      | None -> []
      | Some reg ->
        List.filter_map
          (fun s ->
            Option.map
              (fun h -> (s, H.mean h))
              (Registry.find_histogram reg ("stage." ^ s)))
          (Array.to_list Trace.stage_names)
    in
    (rows, stage_means, Cache.stats (Server.cache srv), rps_on, rps_off,
     overhead)
  in
  let farm_fragment = farm_bench () in
  hr ();
  Printf.printf
    "throughput: %d clients x %d cached requests — telemetry on %.0f \
     req/s, off %.0f req/s (overhead ratio %.3f)\n"
    n_clients per_client rps_on rps_off overhead;
  Printf.printf "cache: %d hits, %d misses, %d stores\n" cache_s.Cache.hits
    cache_s.Cache.misses cache_s.Cache.stores;
  List.iter
    (fun (s, m) -> Printf.printf "stage %-18s mean %8.1f us\n" s m)
    stage_means;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"gmt-bench-service/3\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" j);
  Buffer.add_string buf
    (Printf.sprintf "  \"warm_rounds\": %d,\n" warm_rounds);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"throughput\": {\"clients\": %d, \"requests_per_client\": %d, \
        \"telemetry_on_req_per_s\": %.1f, \"telemetry_off_req_per_s\": \
        %.1f, \"overhead_ratio\": %.4f},\n"
       n_clients per_client rps_on rps_off overhead);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cache\": {\"hits\": %d, \"misses\": %d, \"stores\": %d},\n"
       cache_s.Cache.hits cache_s.Cache.misses cache_s.Cache.stores);
  Buffer.add_string buf "  \"stages\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (s, m) -> Printf.sprintf "%S: %.1f" s m)
          stage_means));
  Buffer.add_string buf "},\n";
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, tech, coco, cold_s, h, ratio) ->
            Printf.sprintf
              "    {\"bench\": %S, \"technique\": %S, \"coco\": %b, \
               \"cold_ms\": %.3f, \"hit_ms\": %.3f, \"hit_p50_us\": %d, \
               \"hit_p90_us\": %d, \"hit_p99_us\": %d, \"hit_speedup\": \
               %.1f}"
              name tech coco (1e3 *. cold_s) (H.mean h /. 1e3)
              (H.quantile h 0.5) (H.quantile h 0.9) (H.quantile h 0.99)
              ratio)
          rows));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf farm_fragment;
  Buffer.add_string buf "\n}\n";
  (match Json.parse (Buffer.contents buf) with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "[service] BENCH_service.json would be malformed: %s\n" e;
    exit 1);
  let oc = open_out "BENCH_service.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  let worst =
    List.fold_left (fun acc (_, _, _, _, _, r) -> min acc r) infinity rows
  in
  Printf.eprintf
    "[service] BENCH_service.json written (worst hit speedup %.1fx, \
     telemetry overhead %.3f)\n%!"
    worst overhead

(* --telemetry-smoke: the CI gate for the telemetry plane. Validates the
   committed BENCH_service.json — schema gmt-bench-service/3, monotone
   per-cell p50<=p90<=p99, a mean for all seven req.* stages, and the
   recorded telemetry-on/off throughput ratio at or under the 1.05
   overhead gate — then starts a live in-process daemon, serves one
   cold and one warm check, and proves the stats/2 frame self-parses
   (schema, registry, counters) and its Prometheus text lints (every
   sample gmt_-prefixed, the check-latency series present). Runs under
   the @telemetry alias, folded into @smoke. *)
let telemetry_smoke path =
  let module Server = Gmt_service.Server in
  let module Client = Gmt_service.Client in
  let module Text = Gmt_frontend.Text in
  let module Trace = Gmt_telemetry.Trace in
  let t0 = Unix.gettimeofday () in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[telemetry-smoke] FAIL: %s\n" s;
        exit 1)
      fmt
  in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read %s: %s" path e
  in
  (match Json.parse text with
  | Error e -> fail "%s malformed: %s" path e
  | Ok bj ->
    (match Json.member "schema" bj with
    | Some (Json.Str "gmt-bench-service/3") -> ()
    | _ -> fail "%s lacks schema gmt-bench-service/3" path);
    (match
       Option.bind (Json.member "throughput" bj)
         (Json.member "overhead_ratio")
     with
    | Some (Json.Num r) when r > 0.0 && r <= 1.05 -> ()
    | Some (Json.Num r) ->
      fail "recorded telemetry overhead ratio %.3f exceeds the 1.05 gate" r
    | _ -> fail "%s lacks throughput.overhead_ratio" path);
    (match Json.member "stages" bj with
    | Some (Json.Obj ss) ->
      Array.iter
        (fun s ->
          match List.assoc_opt s ss with
          | Some (Json.Num m) when m >= 0.0 -> ()
          | _ -> fail "%s stages lack a non-negative %S mean" path s)
        Trace.stage_names
    | _ -> fail "%s lacks a stages object" path);
    (match Json.member "cells" bj with
    | Some (Json.Arr (_ :: _ as cs)) ->
      List.iter
        (fun c ->
          let num k =
            match Json.member k c with
            | Some (Json.Num v) -> v
            | _ -> fail "a cell in %s lacks %s" path k
          in
          let p50 = num "hit_p50_us" in
          let p90 = num "hit_p90_us" in
          let p99 = num "hit_p99_us" in
          if not (p50 <= p90 && p90 <= p99) then
            fail "cell percentiles not monotone (%.0f/%.0f/%.0f)" p50 p90
              p99)
        cs
    | _ -> fail "%s lacks a cells array" path));
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmtd-tsmoke-%d.sock" (Unix.getpid ()))
  in
  let cfg = { (Server.default_config ~socket) with Server.jobs = 2 } in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let gmt = Text.print (Suite.find "ks") in
  let req =
    Client.check_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  let round () =
    match Client.request ~socket req with
    | Ok o when o.Gmt_service.Render.code = 0 -> ()
    | Ok o -> fail "live check exited %d" o.Gmt_service.Render.code
    | Error _ -> fail "live daemon unreachable"
  in
  round ();
  round ();
  (match Client.rpc ~socket Client.stats_request with
  | Error _ -> fail "stats rpc failed"
  | Ok sj ->
    (match Json.member "schema" sj with
    | Some (Json.Str "gmtd-stats/2") -> ()
    | _ -> fail "stats frame lacks schema gmtd-stats/2");
    (match
       Option.bind (Json.member "telemetry" sj) (Json.member "schema")
     with
    | Some (Json.Str "gmt-telemetry/1") -> ()
    | _ -> fail "stats frame lacks an embedded gmt-telemetry/1 registry");
    (match
       Option.bind (Json.member "telemetry" sj) (fun t ->
           Option.bind (Json.member "counters" t)
             (Json.member "req.total"))
     with
    | Some (Json.Num n) when n >= 2.0 -> ()
    | _ -> fail "registry counters lack req.total >= 2");
    (match Json.member "prometheus" sj with
    | Some (Json.Str prom) ->
      let lines = String.split_on_char '\n' prom in
      List.iter
        (fun l ->
          let is_comment =
            String.length l >= 1 && String.get l 0 = '#'
          in
          if l <> "" && not is_comment
             && not (String.length l > 4 && String.sub l 0 4 = "gmt_")
          then fail "prometheus sample not gmt_-prefixed: %s" l)
        lines;
      let has prefix =
        List.exists
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          lines
      in
      if not (has "gmt_latency_check_bucket") then
        fail "prometheus text lacks the check-latency bucket series";
      if not (has "gmt_latency_check_count") then
        fail "prometheus text lacks the check-latency count sample"
    | _ -> fail "stats frame lacks prometheus text"));
  Printf.printf
    "[telemetry-smoke] ok: %s schema valid, overhead gate met, live \
     stats/2 frame and Prometheus text lint clean (%.2fs)\n"
    path
    (Unix.gettimeofday () -. t0)

(* --farm-smoke: the CI gate for the compile farm. Validates the farm
   section of the committed BENCH_service.json — schema
   gmt-bench-service/3, the 2- and 4-shard scaling gates (>= 1.7x and
   >= 3x aggregate req/s over one shard), the single-flight collapse
   share (>= 90% of duplicate concurrent misses), and the shard-kill
   drill (post-kill hit rate within 10 points of pre-kill) — then runs
   a live two-shard farm on ephemeral TCP ports: a cold compile routed
   by the ring is byte-identical to the offline pipeline, the artifact
   replicates to the ring successor, and after killing the owner the
   same request is served warm by the survivor. Runs under the
   @farm-smoke alias, folded into @smoke. *)
let farm_smoke path =
  let module Server = Gmt_service.Server in
  let module Client = Gmt_service.Client in
  let module Render = Gmt_service.Render in
  let module Cache = Gmt_cache.Cache in
  let module Text = Gmt_frontend.Text in
  let module Farm = Gmt_farm.Farm in
  let module Router = Gmt_farm.Router in
  let module Shard = Gmt_farm.Shard in
  let t0 = Unix.gettimeofday () in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[farm-smoke] FAIL: %s\n" s;
        exit 1)
      fmt
  in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read %s: %s" path e
  in
  (match Json.parse text with
  | Error e -> fail "%s malformed: %s" path e
  | Ok bj ->
    (match Json.member "schema" bj with
    | Some (Json.Str "gmt-bench-service/3") -> ()
    | _ -> fail "%s lacks schema gmt-bench-service/3" path);
    let farm =
      match Json.member "farm" bj with
      | Some f -> f
      | None -> fail "%s lacks a farm section" path
    in
    let num where j k =
      match Json.member k j with
      | Some (Json.Num v) -> v
      | _ -> fail "%s lacks %s.%s" path where k
    in
    (match Json.member "scaling" farm with
    | Some (Json.Arr rows) ->
      let speedup n =
        match
          List.find_opt
            (fun r ->
              Json.member "shards" r = Some (Json.Num (float_of_int n)))
            rows
        with
        | Some r -> num "a farm.scaling row" r "speedup"
        | None -> fail "farm.scaling lacks the %d-shard row" n
      in
      let s2 = speedup 2 and s4 = speedup 4 in
      if s2 < 1.7 then
        fail "2-shard speedup %.2fx under the 1.7x gate" s2;
      if s4 < 3.0 then fail "4-shard speedup %.2fx under the 3x gate" s4
    | _ -> fail "%s farm section lacks a scaling array" path);
    (match Json.member "singleflight" farm with
    | Some sf ->
      let c = num "farm.singleflight" sf "collapse_share" in
      if c < 0.9 then
        fail "single-flight collapse share %.2f under the 0.9 gate" c
    | None -> fail "%s farm section lacks singleflight" path);
    (match Json.member "failover" farm with
    | Some fo ->
      let pre = num "farm.failover" fo "pre_kill_hit_rate" in
      let post = num "farm.failover" fo "post_kill_hit_rate" in
      if post < pre -. 0.10 then
        fail "post-kill hit rate %.2f fell over 10 points from %.2f" post
          pre
    | None -> fail "%s farm section lacks failover" path));
  (* Live drill: two shards listening on ephemeral TCP ports (the
     clients route over TCP; replication pushes ride the Unix
     sockets, whose paths are known before the ports are). *)
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gmtd-fsmoke-%s-%d.sock" tag (Unix.getpid ()))
  in
  let sock_a = sock "a" and sock_b = sock "b" in
  let peers = [ ("a", sock_a); ("b", sock_b) ] in
  let shard self socket =
    Shard.start
      {
        Shard.server =
          {
            (Server.default_config ~socket) with
            Server.jobs = 2;
            tcp = Some ("127.0.0.1", 0);
          };
        self;
        peers;
      }
  in
  let sa = shard "a" sock_a and sb = shard "b" sock_b in
  let stopped = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (nm, s) -> if not (List.mem nm !stopped) then Shard.stop s)
        [ ("a", sa); ("b", sb) ])
  @@ fun () ->
  let port s =
    match Server.tcp_port (Shard.server s) with
    | Some p -> p
    | None -> fail "shard has no TCP listener"
  in
  let farm =
    Farm.create ~cooldown:5.0
      [
        { Router.name = "a";
          endpoint = Printf.sprintf "127.0.0.1:%d" (port sa) };
        { Router.name = "b";
          endpoint = Printf.sprintf "127.0.0.1:%d" (port sb) };
      ]
  in
  let w = Suite.find "ks" in
  let gmt = Text.print w in
  let offline = Render.check ~technique:V.Gremio ~coco:false ~threads:2 w in
  let key =
    Farm.compile_key ~technique:V.Gremio ~coco:false ~threads:2
      ~canonical:gmt
  in
  let req =
    Client.check_request ~gmt ~technique:"gremio" ~coco:false ~threads:2 ()
  in
  let owner =
    match Router.owner (Farm.router farm) ~key with
    | Some s -> s.Router.name
    | None -> fail "ring has no owner for the key"
  in
  (match Farm.request farm ~key req with
  | Ok (o, by) ->
    if
      o.Render.out <> offline.Render.out
      || o.Render.err <> offline.Render.err
      || o.Render.code <> offline.Render.code
    then fail "TCP farm reply differs from the offline pipeline";
    if by <> owner then
      fail "cold request served by %s, ring owner is %s" by owner
  | Error `No_shard -> fail "no shard reachable over TCP"
  | Error (`Busy m) -> fail "unexpected busy: %s" m
  | Error (`Protocol m) -> fail "protocol error over TCP: %s" m);
  let owner_shard, survivor_shard, survivor =
    if owner = "a" then (sa, sb, "b") else (sb, sa, "a")
  in
  let survivor_cache = Server.cache (Shard.server survivor_shard) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Cache.find survivor_cache key = None
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  if Cache.find survivor_cache key = None then
    fail "artifact never replicated to the ring successor";
  Shard.stop owner_shard;
  stopped := [ owner ];
  (match Farm.request farm ~key req with
  | Ok (o, by) ->
    if by <> survivor then
      fail "failover request served by %s, expected %s" by survivor;
    if o.Render.cache_status <> "hit" then
      fail "failover reply was %S, not a warm hit" o.Render.cache_status;
    if o.Render.out <> offline.Render.out then
      fail "failover reply bytes differ from the offline pipeline"
  | Error _ -> fail "failover request failed");
  Printf.printf
    "[farm-smoke] ok: %s farm gates met; live 2-shard TCP drill \
     byte-identical, shard kill served warm by the survivor (%.2fs)\n"
    path
    (Unix.gettimeofday () -. t0)

(* ---------------------- execution-runtime A/B --------------------- *)

module Sched = Gmt_exec.Sched
module Central = Gmt_exec.Central

(* pool (explicit section, like ablate): the execution-runtime A/B. A
   flood of tiny tasks — an 8-step xorshift each, orders of magnitude
   below a matrix cell — is driven through the preserved central-queue
   pool and the work-stealing scheduler at matched worker counts. The
   engines are created once and the flood repeated inside them
   (median over paired steady-state rounds — see [paired_flood]):
   Domain.spawn/join for a handful of domains costs 1-12 ms with
   enormous variance on this class of host, which would drown the
   per-task scheduling signal the microbench exists to measure — and
   the long-lived-engine shape is the production one (the daemon keeps
   one pool for its lifetime).
   Then the Fig-8 matrix runs end-to-end at --jobs 1/2/4 to record the
   production-path scaling curve. Writes BENCH_pool.json (schema
   gmt-bench-pool/1), validated by --pool-smoke under CI's @pool-smoke
   alias, folded into @smoke. *)

let pool_levels = [ 1; 2; 4 ]
let pool_micro_tasks = 50_000
let pool_micro_reps = 16

(* Deliberately tiny task body (~8 xorshift steps): the microbench
   measures per-task scheduling overhead, and a heavier body only
   dilutes the quantity under test toward a ratio of 1.0. *)
let micro_work seed =
  let x = ref (seed lor 1) in
  for _ = 1 to 8 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  !x

(* Published sink so the flop loop cannot be optimized away. *)
let pool_sink = Atomic.make 0

(* One steady-state flood round: submit [n] tiny tasks, then nap-wait
   for the engine to retire them all (napping, not spinning — a
   spinning submitter would starve the workers of the core). The
   completion check is exact, so a lost task hangs the round rather
   than passing silently. *)
let flood_round ~submit n =
  let hits = Atomic.make 0 in
  for i = 1 to n do
    submit (fun () ->
        Atomic.set pool_sink (micro_work i);
        Atomic.incr hits)
  done;
  while Atomic.get hits < n do
    Unix.sleepf 1e-4
  done

let best_of reps f =
  let rec go k best =
    if k = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      go (k - 1) (Float.min best (Unix.gettimeofday () -. t0))
    end
  in
  go reps infinity

(* Measure [reps] flood rounds through a long-lived engine; spawn and
   join stay outside the timed windows (identically for both engines). *)
let central_flood workers n reps =
  let c = Central.create ~workers in
  let dt = best_of reps (fun () -> flood_round ~submit:(Central.submit c) n) in
  Central.shutdown c;
  dt

let sched_flood workers n reps =
  let s = Sched.create ~workers () in
  let dt = best_of reps (fun () -> flood_round ~submit:(Sched.submit s) n) in
  Sched.shutdown s;
  dt

(* Paired steady-state A/B: both engines stay alive for the whole
   measurement and each round times one central flood and one
   work-stealing flood back to back, so a noisy stretch of the host
   (this class of box shows multi-ms OS-scheduling swings between
   consecutive floods) lands on both engines instead of biasing
   whichever happened to run alone. The settle between windows does
   two things: [Gc.full_major] retires the garbage the previous flood
   promoted (queued nodes and closures that survive a minor collection
   while in flight become incremental major-GC debt, and letting it
   accumulate was measured degrading later rounds 2-4x — the noise was
   self-inflicted, not the host), and the nap lets the engine that
   just finished escalate from post-flood nap-polling to a full condvar
   park so its idle tail cannot bleed into the other engine's timed
   window.

   The reported figure is the MEDIAN round, not the min. Min is the
   right noise-floor estimator for a deterministic kernel, but here the
   central engine's pathology — the signal-storm herd when several
   workers contend for one condvar — is exactly the phenomenon under
   test, and it is scheduling-dependent: on a lucky round the OS leaves
   all but one central worker parked and the engine coasts at its
   single-worker floor. Min over rounds selects precisely those rounds
   and erases the behavior being measured; the median reports what a
   typical round costs. The headline ratio is the median of the
   PER-ROUND ratios rather than the quotient of the two medians: a
   host-noise burst that spans a whole round hits both windows and
   cancels in that round's ratio, and the median discards the rounds
   where a burst landed on only one side. *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k land 1 = 1 then a.(k / 2) else 0.5 *. (a.((k / 2) - 1) +. a.(k / 2))

let paired_flood workers n rounds =
  let c = Central.create ~workers in
  let s = Sched.create ~workers () in
  let settle () =
    Gc.full_major ();
    Unix.sleepf 3e-3
  in
  let cs = Array.make rounds 0.0 and ss = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    settle ();
    let t0 = Unix.gettimeofday () in
    flood_round ~submit:(Central.submit c) n;
    let t1 = Unix.gettimeofday () in
    settle ();
    let t2 = Unix.gettimeofday () in
    flood_round ~submit:(Sched.submit s) n;
    let t3 = Unix.gettimeofday () in
    cs.(r) <- t1 -. t0;
    ss.(r) <- t3 -. t2
  done;
  Central.shutdown c;
  Sched.shutdown s;
  let ratios = Array.init rounds (fun r -> cs.(r) /. ss.(r)) in
  (median cs, median ss, median ratios)

let write_pool_json micro matrix (st : Sched.stats) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"gmt-bench-pool/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tasks\": %d,\n  \"reps\": %d,\n  \"estimator\": \
        \"median-of-paired-round-ratios\",\n"
       pool_micro_tasks pool_micro_reps);
  Buffer.add_string buf "  \"micro\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (lvl, c, s, ratio) ->
            Printf.sprintf
              "    {\"jobs\": %d, \"central_s\": %.6f, \"sched_s\": %.6f, \
               \"ratio\": %.4f}"
              lvl c s ratio)
          micro));
  Buffer.add_string buf "\n  ],\n  \"matrix\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (lvl, dt) ->
            Printf.sprintf "    {\"jobs\": %d, \"wall_s\": %.6f}" lvl dt)
          matrix));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"sched\": {\"workers\": %d, \"tasks_run\": %d, \"injected\": %d, \
        \"steals_attempted\": %d, \"steals_succeeded\": %d, \"parks\": %d, \
        \"deque_depth_peak\": %d}\n"
       st.Sched.workers st.Sched.tasks_run st.Sched.injected
       st.Sched.steals_attempted st.Sched.steals_succeeded st.Sched.parks
       st.Sched.deque_depth_peak);
  Buffer.add_string buf "}\n";
  (match Json.parse (Buffer.contents buf) with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "[bench] BENCH_pool.json would be malformed: %s\n" e;
    exit 1);
  let oc = open_out "BENCH_pool.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf "[bench] BENCH_pool.json written\n%!"

(* Diagnostic decomposition of the micro-flood cost (hidden "pool-probe"
   arg): isolates task-body work, bare injector traffic, and each
   engine's no-op-task overhead so a regression can be attributed to a
   specific layer instead of re-guessed from the A/B totals. *)
let pool_probe () =
  let n = pool_micro_tasks in
  let time label f =
    let dt = best_of 3 f in
    Printf.printf "%-32s %8.2f ms  (%5.0f ns/task)\n%!" label (1e3 *. dt)
      (1e9 *. dt /. float_of_int n)
  in
  time "inline micro_work" (fun () ->
      for i = 1 to n do
        Atomic.set pool_sink (micro_work i)
      done);
  time "injector push+pop_batch (1 dom)" (fun () ->
      let q = Gmt_exec.Injector.create () in
      let sink = ref 0 in
      for i = 1 to n do
        Gmt_exec.Injector.push q i
      done;
      let rec drain () =
        match Gmt_exec.Injector.pop_batch q ~max:64 with
        | [] -> ()
        | batch ->
          List.iter (fun v -> sink := !sink + v) batch;
          drain ()
      in
      drain ());
  time "central, no-op tasks, 1 worker" (fun () ->
      let c = Central.create ~workers:1 in
      for _ = 1 to n do
        Central.submit c ignore
      done;
      Central.shutdown c);
  time "sched, no-op tasks, 1 worker" (fun () ->
      let s = Sched.create ~workers:1 () in
      for _ = 1 to n do
        Sched.submit s ignore
      done;
      Sched.shutdown s);
  let engine label f =
    let dt = f () in
    Printf.printf "%-32s %8.2f ms  (%5.0f ns/task)\n%!" label (1e3 *. dt)
      (1e9 *. dt /. float_of_int n)
  in
  engine "central micro_work, 1 worker" (fun () -> central_flood 1 n 3);
  engine "sched micro_work, 1 worker" (fun () -> sched_flood 1 n 3);
  time "central, no-op tasks, 4 workers" (fun () ->
      let c = Central.create ~workers:4 in
      for _ = 1 to n do
        Central.submit c ignore
      done;
      Central.shutdown c);
  time "sched, no-op tasks, 4 workers" (fun () ->
      let s = Sched.create ~workers:4 () in
      for _ = 1 to n do
        Sched.submit s ignore
      done;
      Sched.shutdown s);
  engine "central micro_work, 4 workers" (fun () -> central_flood 4 n 3);
  engine "sched micro_work, 4 workers" (fun () -> sched_flood 4 n 3)

let pool_probe4 () =
  let n = pool_micro_tasks in
  (* Per-round paired times: the distribution, not just the min, so a
     drifting floor or bimodal noise is visible directly. *)
  let paired workers rounds =
    Printf.printf "paired rounds, %d workers (central / sched, ms):\n" workers;
    let c = Central.create ~workers in
    let s = Sched.create ~workers () in
    for _ = 1 to rounds do
      Gc.full_major ();
      Unix.sleepf 3e-3;
      let t0 = Unix.gettimeofday () in
      flood_round ~submit:(Central.submit c) n;
      let t1 = Unix.gettimeofday () in
      Gc.full_major ();
      Unix.sleepf 3e-3;
      let t2 = Unix.gettimeofday () in
      flood_round ~submit:(Sched.submit s) n;
      let t3 = Unix.gettimeofday () in
      Printf.printf "  %6.2f / %-6.2f\n%!" (1e3 *. (t1 -. t0))
        (1e3 *. (t3 -. t2))
    done;
    Central.shutdown c;
    Sched.shutdown s
  in
  paired 1 20;
  paired 2 20;
  paired 4 20

let pool_section () =
  print_endline "";
  print_endline
    "Execution runtime: central queue vs work stealing (micro-task flood)";
  hr ();
  Printf.printf "%-6s | %12s %13s | %7s\n" "jobs" "central(ms)"
    "stealing(ms)" "ratio";
  hr ();
  let n = pool_micro_tasks in
  let micro =
    List.map
      (fun lvl ->
        let c, s, ratio = paired_flood lvl n pool_micro_reps in
        Printf.printf "%-6d | %12.2f %13.2f | %6.2fx\n%!" lvl (1e3 *. c)
          (1e3 *. s) ratio;
        (lvl, c, s, ratio))
      pool_levels
  in
  hr ();
  (* One instrumented flood at the top worker count for the counter
     sample (stats are exact after shutdown). *)
  let st =
    let workers = List.fold_left max 1 pool_levels in
    let s = Sched.create ~workers () in
    let hits = Atomic.make 0 in
    for i = 1 to n do
      Sched.submit s (fun () ->
          Atomic.set pool_sink (micro_work i);
          Atomic.incr hits)
    done;
    Sched.shutdown s;
    Sched.stats s
  in
  Printf.printf
    "scheduler counters at jobs=%d: tasks %d, injected %d, steals %d/%d, \
     parks %d, deque peak %d\n"
    st.Sched.workers st.Sched.tasks_run st.Sched.injected
    st.Sched.steals_succeeded st.Sched.steals_attempted st.Sched.parks
    st.Sched.deque_depth_peak;
  (* Production path: the full evaluation matrix at each jobs level
     (byte-identical metrics by the Pool determinism contract; only the
     wall-clock differs). *)
  let ws = Suite.all () in
  let matrix =
    List.map
      (fun lvl ->
        let t0 = Unix.gettimeofday () in
        ignore (V.run_matrix ~jobs:lvl ws);
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf "matrix --jobs %d: %.2fs\n%!" lvl dt;
        (lvl, dt))
      pool_levels
  in
  write_pool_json micro matrix st

(* --pool-smoke: validate the committed BENCH_pool.json — schema
   self-parse, work-stealing at or above the central baseline at every
   recorded jobs level and beating it by >1.2x at some jobs >= 4, the
   matrix scaling curve present, live scheduler counters recorded — then
   re-prove live (and cheaply) the three Pool behaviors the artifact's
   numbers rest on: submission-order determinism across --jobs 1/2/4,
   the no-spawn fast path for trivial task lists, and exact counter
   accounting. *)
let pool_smoke path =
  let t0 = Unix.gettimeofday () in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[pool-smoke] FAIL: %s\n" s;
        exit 1)
      fmt
  in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read %s: %s" path e
  in
  (match Json.parse text with
  | Error e -> fail "%s malformed: %s" path e
  | Ok j ->
    (match Json.member "schema" j with
    | Some (Json.Str "gmt-bench-pool/1") -> ()
    | _ -> fail "%s lacks schema gmt-bench-pool/1" path);
    (match Json.member "micro" j with
    | Some (Json.Arr (_ :: _ as ms)) ->
      let level m name =
        match Json.member name m with
        | Some (Json.Num v) -> v
        | _ -> fail "a micro row lacks %s" name
      in
      List.iter
        (fun m ->
          let jv = level m "jobs" and r = level m "ratio" in
          if r < 1.0 then
            fail "work stealing below the central baseline at jobs=%.0f \
                  (ratio %.2f)" jv r)
        ms;
      if
        not
          (List.exists
             (fun m -> level m "jobs" >= 4.0 && level m "ratio" > 1.2)
             ms)
      then fail "no jobs>=4 micro row beats the central baseline by >1.2x"
    | _ -> fail "%s lacks a micro array" path);
    (match Json.member "matrix" j with
    | Some (Json.Arr rows) ->
      List.iter
        (fun lvl ->
          if
            not
              (List.exists
                 (fun r ->
                   match
                     (Json.member "jobs" r, Json.member "wall_s" r)
                   with
                   | Some (Json.Num l), Some (Json.Num w) ->
                     int_of_float l = lvl && w > 0.0
                   | _ -> false)
                 rows)
          then fail "matrix scaling curve lacks jobs=%d" lvl)
        pool_levels
    | _ -> fail "%s lacks a matrix array" path);
    match Json.member "sched" j with
    | Some s -> (
      match Json.member "tasks_run" s with
      | Some (Json.Num n) when n > 0.0 -> ()
      | _ -> fail "sched counters lack tasks_run > 0")
    | None -> fail "%s lacks a sched counter object" path);
  (* Live: determinism of collection across jobs levels. *)
  let tasks = List.init 64 (fun i () -> micro_work (i + 1)) in
  let reference = Pool.run_list ~jobs:1 tasks in
  List.iter
    (fun jv ->
      if Pool.run_list ~jobs:jv tasks <> reference then
        fail "run_list results differ between --jobs 1 and --jobs %d" jv)
    [ 2; 4 ];
  (* Live: trivial task lists must not spawn worker domains. *)
  let base = Sched.domains_spawned_total () in
  (match Pool.run_list ~jobs:4 [] with [] -> () | _ -> fail "empty run_list");
  (match Pool.run_list ~jobs:4 [ (fun () -> 17) ] with
  | [ 17 ] -> ()
  | _ -> fail "singleton run_list");
  if Sched.domains_spawned_total () <> base then
    fail "trivial run_list spawned a worker domain";
  (* Live: exact accounting after shutdown. *)
  let s = Sched.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    Sched.submit s (fun () -> Atomic.incr hits)
  done;
  Sched.shutdown s;
  let st = Sched.stats s in
  if Atomic.get hits <> 100 || st.Sched.tasks_run <> 100 then
    fail "scheduler accounting off: ran %d, counted %d" (Atomic.get hits)
      st.Sched.tasks_run;
  Printf.printf
    "[pool-smoke] ok: %s schema valid, stealing >= baseline at every \
     level (>1.2x at jobs>=4), determinism and no-spawn fast path \
     re-proven live (%.2fs)\n"
    path
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
    | "--smoke" :: rest -> "--smoke-marker" :: parse rest
    | "--verify-matrix" :: rest -> "--verify-marker" :: parse rest
    | "--bench-smoke" :: rest -> "--bench-smoke-marker" :: parse rest
    | "--telemetry-smoke" :: rest -> "--telemetry-smoke-marker" :: parse rest
    | "--farm-smoke" :: rest -> "--farm-smoke-marker" :: parse rest
    | "--pool-smoke" :: rest -> "--pool-smoke-marker" :: parse rest
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
  (if List.mem "--smoke-marker" args then smoke ()
   else if List.mem "--verify-marker" args then verify_matrix ()
   else if List.mem "--bench-smoke-marker" args then
     bench_smoke
       (match List.filter (fun a -> a <> "--bench-smoke-marker") args with
       | p :: _ -> p
       | [] -> "BENCH_fig8.json")
   else if List.mem "--telemetry-smoke-marker" args then
     telemetry_smoke
       (match
          List.filter (fun a -> a <> "--telemetry-smoke-marker") args
        with
       | p :: _ -> p
       | [] -> "BENCH_service.json")
   else if List.mem "--farm-smoke-marker" args then
     farm_smoke
       (match List.filter (fun a -> a <> "--farm-smoke-marker") args with
       | p :: _ -> p
       | [] -> "BENCH_service.json")
   else if List.mem "--pool-smoke-marker" args then
     pool_smoke
       (match List.filter (fun a -> a <> "--pool-smoke-marker") args with
       | p :: _ -> p
       | [] -> "BENCH_pool.json")
   else begin
     let want s = args = [] || List.mem s args in
     if want "fig6" then fig6 ();
     if want "fig1" then fig1 ();
     if want "fig7" then fig7 ();
     if want "fig8" then fig8 ();
     if want "caches" then caches ();
     if want "compile" then compile_bench ();
     if List.mem "ablate" args then ablate ();
     if List.mem "fuzz" args then fuzz_section ();
     if List.mem "pool-probe" args then pool_probe ();
     if List.mem "pool-probe4" args then pool_probe4 ();
     if List.mem "pool" args then pool_section ();
     if List.mem "service" args then service_bench ()
   end);
  Option.iter Obs.write_trace !trace_out;
  Option.iter Obs.write_metrics !metrics_out
