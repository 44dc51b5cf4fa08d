(* The simulator issue-loop kernels and the parallel evaluation harness.

   Three contracts are enforced here:
   - the jit issue-loop kernel produces byte-identical results to the
     legacy list-walking oracle on random structured programs (single-
     and multi-threaded, with random partitions);
   - the simulator agrees with the untimed interpreters: equal final
     memory and equal per-thread instruction, communication and sync
     counts, the MT interpreter under both of its schedulers — the
     oracles the measurement path no longer runs; and
   - Velocity.run_matrix over the Pool yields byte-identical metrics for
     every jobs count, 1..4, on the full benchmark suite. *)

open Gmt_ir
module Sim = Gmt_machine.Sim
module Legacy = Gmt_machine.Legacy
module Interp = Gmt_machine.Interp
module Mt_interp = Gmt_machine.Mt_interp
module Config = Gmt_machine.Config
module Pool = Gmt_parallel.Pool
module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite

(* ------------- legacy == jit on random programs ------------- *)

let sim_results_equal (a : Sim.result) (b : Sim.result) =
  a.Sim.cycles = b.Sim.cycles
  && a.Sim.memory = b.Sim.memory
  && a.Sim.per_core = b.Sim.per_core
  && a.Sim.deadlocked = b.Sim.deadlocked
  && a.Sim.fuel_exhausted = b.Sim.fuel_exhausted
  && a.Sim.idle_peak = b.Sim.idle_peak
  && a.Sim.stall_attr = b.Sim.stall_attr
  && a.Sim.queue_peak = b.Sim.queue_peak
  && a.Sim.deadlock_report = b.Sim.deadlock_report

(* A simulator entry point: [Legacy.run] or [Sim.run]. *)
type engine =
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Mtprog.t ->
  mem_size:int ->
  Sim.result

(* Run one simulation under both engines and require byte-identical
   results, legacy as the reference. *)
let engines_agree (run : engine -> Sim.result) =
  sim_results_equal (run Legacy.run) (run Sim.run)

let single f = Mtprog.make ~name:f.Func.name ~threads:[| f |] ~n_queues:0

let prop_kernels_agree_single =
  QCheck.Test.make ~count:120
    ~name:"legacy == jit (single-threaded)"
    Test_props.arbitrary_case
    (fun (stmts, _seed, _n_threads) ->
      let f = Test_props.lower stmts in
      Validate.check f;
      engines_agree (fun run ->
          run ~fuel:500_000 ~init_regs:Test_props.init_regs
            ~init_mem:Test_props.init_mem (Config.test_config ()) (single f)
            ~mem_size:Test_props.mem_size))

let prop_kernels_agree_mt =
  QCheck.Test.make ~count:80
    ~name:"legacy == jit (MTCG output, random partitions)"
    Test_props.arbitrary_case
    (fun (stmts, seed, n_threads) ->
      let f = Test_props.lower stmts in
      let pdg = Gmt_pdg.Pdg.build f in
      let part = Test_props.random_partition f ~n_threads ~seed in
      let mtp = Gmt_mtcg.Mtcg.run pdg part in
      engines_agree (fun run ->
          run ~fuel:2_000_000 ~init_regs:Test_props.init_regs
            ~init_mem:Test_props.init_mem
            (Config.test_config ~n_cores:n_threads ())
            mtp ~mem_size:Test_props.mem_size))

(* Also pin the kernels against each other on real workloads, both
   machine configs (1-entry GREMIO queues and 32-entry DSWP queues). Two
   threads run [Sim]'s two-core loop; three run its generic loop, which
   no 2-thread program reaches. *)
let test_kernels_agree_workloads () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      List.iter
        (fun tech ->
          let c = V.compile tech w in
          let mc = V.machine_config tech in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s kernels agree" name (V.technique_name tech))
            true
            (engines_agree (fun run ->
                 run ~init_regs:w.W.reference.W.regs
                   ~init_mem:w.W.reference.W.mem mc c.V.mtp
                   ~mem_size:w.W.mem_size));
          let c3 = V.compile ~n_threads:3 tech w in
          let mc3 = V.machine_config ~n_cores:3 tech in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s at 3 threads" name (V.technique_name tech))
            3
            (Array.length c3.V.mtp.Mtprog.threads);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s kernels agree at 3 threads" name
               (V.technique_name tech))
            true
            (engines_agree (fun run ->
                 run ~init_regs:w.W.reference.W.regs
                   ~init_mem:w.W.reference.W.mem mc3 c3.V.mtp
                   ~mem_size:w.W.mem_size)))
        [ V.Gremio; V.Dswp ])
    [ "adpcmdec"; "ks" ]

(* Runs cut off by a small fuel, in both multi-core loops: each case at 2
   and at 3 threads. The properties above run at a fuel nearly every case
   completes under, so only this one compares partial cycles, stall
   attribution and idle peaks, and fuel caps that land inside an idle
   fast-forward. *)
let prop_kernels_agree_fuel =
  QCheck.Test.make ~count:100
    ~name:"legacy == jit under small fuel (2 and 3 cores)"
    (QCheck.pair Test_props.arbitrary_case (QCheck.int_range 1 20_000))
    (fun ((stmts, seed, _n_threads), fuel) ->
      let f = Test_props.lower stmts in
      let pdg = Gmt_pdg.Pdg.build f in
      List.for_all
        (fun n_threads ->
          let part = Test_props.random_partition f ~n_threads ~seed in
          let mtp = Gmt_mtcg.Mtcg.run pdg part in
          engines_agree (fun run ->
              run ~fuel ~init_regs:Test_props.init_regs
                ~init_mem:Test_props.init_mem
                (Config.test_config ~n_cores:n_threads ())
                mtp ~mem_size:Test_props.mem_size))
        [ 2; 3 ])

(* A ring of [k] threads, thread [i] consuming queue [i] and producing
   what it consumed to queue [i + 1 mod k]: every queue starts empty, so
   every thread stalls on its consumed value and the watchdog fires. *)
let deadlock_ring k =
  let thread i =
    let b = Builder.create ~name:(Printf.sprintf "t%d" i) () in
    let v = Builder.reg b and d = Builder.reg b in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Consume (v, i)));
    ignore (Builder.add b b0 (Instr.Produce ((i + 1) mod k, v)));
    ignore (Builder.add b b0 (Instr.Binop (Instr.Add, d, v, v)));
    ignore (Builder.add b b0 (Instr.Store (Builder.region b "m", d, 0, d)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  Mtprog.make ~name:"ring" ~threads:(Array.init k thread) ~n_queues:k

let test_deadlock_agrees () =
  List.iter
    (fun k ->
      let run (engine : engine) =
        engine ~fuel:2_000_000 (Config.test_config ~n_cores:k ())
          (deadlock_ring k) ~mem_size:64
      in
      let legacy = run Legacy.run and jit = run Sim.run in
      Alcotest.(check bool)
        (Printf.sprintf "%d cores deadlock" k)
        true jit.Sim.deadlocked;
      (* Every field, [deadlock_report] and [idle_peak] included. *)
      Alcotest.(check bool)
        (Printf.sprintf "%d cores: legacy == jit" k)
        true
        (sim_results_equal legacy jit))
    [ 2; 3 ]

(* ------------- the simulator == the interpreters ------------- *)

(* The measurement path reads every count off one simulation; these
   properties are what licenses that. On completed runs, the
   single-threaded simulation must reproduce the reference interpreter's
   memory and instruction count, and a multi-threaded one the MT
   interpreter's memory and, per thread, its instruction,
   communication and sync counts. A thread's counts do not depend on
   the interleaving, so the MT interpreter must match under either
   scheduler. *)
let prop_sim_matches_interp =
  QCheck.Test.make ~count:120
    ~name:"sim == interp (single-threaded memory, instrs)"
    Test_props.arbitrary_case
    (fun (stmts, _seed, _n_threads) ->
      let f = Test_props.lower stmts in
      let init_regs = Test_props.init_regs
      and init_mem = Test_props.init_mem
      and mem_size = Test_props.mem_size in
      let s =
        Sim.run_single ~fuel:500_000 ~init_regs ~init_mem
          (Config.test_config ()) f ~mem_size
      in
      let r = Interp.run ~fuel:200_000 ~init_regs ~init_mem f ~mem_size in
      s.Sim.fuel_exhausted || r.Interp.fuel_exhausted
      || (not s.Sim.deadlocked)
         && s.Sim.memory = r.Interp.memory
         && s.Sim.per_core.(0).Sim.instrs = r.Interp.dyn_instrs)

let prop_sim_matches_mt_interp =
  QCheck.Test.make ~count:80
    ~name:"sim == mt_interp (memory, per-thread counts)"
    Test_props.arbitrary_case
    (fun (stmts, seed, n_threads) ->
      let f = Test_props.lower stmts in
      let pdg = Gmt_pdg.Pdg.build f in
      let part = Test_props.random_partition f ~n_threads ~seed in
      let mtp = Gmt_mtcg.Mtcg.run pdg part in
      let init_regs = Test_props.init_regs
      and init_mem = Test_props.init_mem
      and mem_size = Test_props.mem_size in
      let mc = Config.test_config ~n_cores:n_threads () in
      let s = Sim.run ~fuel:2_000_000 ~init_regs ~init_mem mc mtp ~mem_size in
      let same_counts (c : Sim.core_stats) (t : Mt_interp.thread_stats) =
        c.Sim.instrs = t.Mt_interp.dyn_instrs
        && c.Sim.comm_instrs = Mt_interp.comm_of t
        && c.Sim.sync_instrs
           = t.Mt_interp.produce_syncs + t.Mt_interp.consume_syncs
      in
      List.for_all
        (fun sched ->
          let r =
            Mt_interp.run ~fuel:2_000_000 ~sched ~init_regs ~init_mem mtp
              ~queue_capacity:mc.Config.queue_size ~mem_size
          in
          s.Sim.fuel_exhausted || r.Mt_interp.fuel_exhausted
          || (not s.Sim.deadlocked)
             && (not r.Mt_interp.deadlocked)
             && s.Sim.memory = r.Mt_interp.memory
             && Array.for_all2 same_counts s.Sim.per_core r.Mt_interp.threads)
        [ Mt_interp.Round_robin; Mt_interp.Random seed ])

(* --------------------- the domain pool --------------------- *)

let test_pool_order () =
  List.iter
    (fun jobs ->
      let tasks = List.init 20 (fun i () -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "results in submission order (jobs=%d)" jobs)
        (List.init 20 (fun i -> i * i))
        (Pool.run_list ~jobs tasks))
    [ 1; 2; 3; 4 ]

exception Boom

let test_pool_exceptions () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "task exception propagates (jobs=%d)" jobs)
        Boom
        (fun () ->
          ignore (Pool.run_list ~jobs [ (fun () -> 1); (fun () -> raise Boom) ])))
    [ 1; 2 ]

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 () in
  Alcotest.(check int) "workers" 2 (Pool.stats p).Pool.workers;
  let f = Pool.submit p (fun () -> 41 + 1) in
  Alcotest.(check int) "await" 42 (Pool.await f);
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit p (fun () -> 0)))

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_pool_invalid_jobs () =
  List.iter
    (fun jobs ->
      expect_invalid_arg
        (Printf.sprintf "create ~jobs:%d" jobs)
        (fun () -> Pool.create ~jobs ());
      expect_invalid_arg
        (Printf.sprintf "run_list ~jobs:%d" jobs)
        (fun () -> Pool.run_list ~jobs [ (fun () -> 0) ]))
    [ 0; -1; -7 ]

let test_default_jobs_rejects_garbage () =
  let old = Sys.getenv_opt "GMT_JOBS" in
  let restore () =
    match old with
    | Some v -> Unix.putenv "GMT_JOBS" v
    | None -> Unix.putenv "GMT_JOBS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      List.iter
        (fun bad ->
          Unix.putenv "GMT_JOBS" bad;
          expect_invalid_arg
            (Printf.sprintf "default_jobs with GMT_JOBS=%S" bad)
            (fun () -> Pool.default_jobs ()))
        [ "0"; "-3"; "many" ])

(* Worker-domain exceptions must surface at [await] with their payload
   intact, whatever the task mix and jobs count. *)
exception Boom_payload of int

let prop_pool_raising_task =
  QCheck.Test.make ~count:60 ~name:"pool re-raises a failing task's exception"
    QCheck.(triple (int_range 1 4) (list_of_size Gen.(1 -- 12) small_nat)
              (option small_nat))
    (fun (jobs, values, raise_at) ->
      let n = List.length values in
      let raise_at = Option.map (fun r -> r mod n) raise_at in
      let tasks =
        List.mapi
          (fun i v () ->
            if raise_at = Some i then raise (Boom_payload i) else v * v)
          values
      in
      match Pool.run_list ~jobs tasks with
      | results ->
        raise_at = None && results = List.map (fun v -> v * v) values
      | exception Boom_payload i -> raise_at = Some i)

(* -------- run_matrix determinism across jobs counts -------- *)

let strip_rows rows =
  List.map
    (fun (r : V.row) ->
      ( r.V.rw.W.name,
        List.map
          (fun (t : V.timed) -> t.V.metrics)
          [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ] ))
    rows

let test_run_matrix_deterministic () =
  let ws = Suite.all () in
  let baseline = strip_rows (V.run_matrix ~jobs:1 ws) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "full-suite matrix at jobs=%d == sequential" jobs)
        true
        (strip_rows (V.run_matrix ~jobs ws) = baseline))
    [ 2; 3; 4 ]

let tests =
  [
    QCheck_alcotest.to_alcotest prop_kernels_agree_single;
    QCheck_alcotest.to_alcotest prop_kernels_agree_mt;
    Alcotest.test_case "sim kernels agree on workloads" `Quick
      test_kernels_agree_workloads;
    QCheck_alcotest.to_alcotest prop_kernels_agree_fuel;
    Alcotest.test_case "sim kernels agree on deadlock (2, 3 cores)" `Quick
      test_deadlock_agrees;
    QCheck_alcotest.to_alcotest prop_sim_matches_interp;
    QCheck_alcotest.to_alcotest prop_sim_matches_mt_interp;
    Alcotest.test_case "pool preserves order (jobs 1..4)" `Quick
      test_pool_order;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_exceptions;
    Alcotest.test_case "pool shutdown idempotent" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "default_jobs sane" `Quick test_default_jobs;
    Alcotest.test_case "pool rejects jobs <= 0" `Quick test_pool_invalid_jobs;
    Alcotest.test_case "default_jobs rejects bad GMT_JOBS" `Quick
      test_default_jobs_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_pool_raising_task;
    Alcotest.test_case "run_matrix deterministic (jobs 1..4)" `Slow
      test_run_matrix_deterministic;
  ]
