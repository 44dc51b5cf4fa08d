(* Machine substrate: cache model, interpreters and the cycle simulator,
   which is pinned to the paper's Fig-6 machine cycle for cycle. *)

open Gmt_ir
module Cache = Gmt_machine.Cache
module Interp = Gmt_machine.Interp
module Mt_interp = Gmt_machine.Mt_interp
module Sim = Gmt_machine.Sim
module Config = Gmt_machine.Config

(* ------------------------- cache ------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~size:1024 ~assoc:2 ~line:64 in
  Alcotest.(check bool) "first access misses" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "second hits" true (Cache.access c ~addr:8);
  Alcotest.(check bool) "different line misses" false (Cache.access c ~addr:64);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way, 1 set: size = 2 * 64. Third distinct line evicts the LRU. *)
  let c = Cache.create ~size:128 ~assoc:2 ~line:64 in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:128);
  ignore (Cache.access c ~addr:0);
  (* 0 is MRU, 128 is LRU *)
  ignore (Cache.access c ~addr:256);
  (* evicts 128 *)
  Alcotest.(check bool) "0 still resident" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "128 evicted" false (Cache.probe c ~addr:128)

let test_cache_probe_no_state_change () =
  let c = Cache.create ~size:128 ~assoc:1 ~line:64 in
  Alcotest.(check bool) "probe cold" false (Cache.probe c ~addr:0);
  Alcotest.(check bool) "still cold" false (Cache.probe c ~addr:0)

(* [Legacy] and [Sim] share [Cache], so their agreement cannot catch an
   indexing bug: compare it hit for hit with a per-set LRU list model,
   on a power-of-two geometry (the paper's 16 KB 4-way 64 B L1) and on
   one that is not (the test config's 5-set L3). *)
let naive_lru ~size ~assoc ~line =
  let n_sets = max 1 (size / (assoc * line)) in
  let sets = Array.make n_sets [] in
  fun addr ->
    let tag = addr / line in
    let s = tag mod n_sets in
    let hit = List.mem tag sets.(s) in
    let rest = List.filter (fun t -> t <> tag) sets.(s) in
    sets.(s) <- List.filteri (fun i _ -> i < assoc) (tag :: rest);
    hit

let prop_cache_matches_lru ~name ~size ~assoc ~line =
  (* Each access repeats the previous line (the model's MRU filter) or
     picks one of four times as many lines as the cache holds. *)
  let lines = 4 * size / line in
  let access =
    QCheck.Gen.(
      pair (int_range 0 2)
        (pair (int_range 0 (lines - 1)) (int_range 0 (line - 1))))
  in
  QCheck.Test.make ~count:200 ~name
    (QCheck.make QCheck.Gen.(list_size (int_range 1 2000) access))
    (fun stream ->
      let c = Cache.create ~size ~assoc ~line in
      let model = naive_lru ~size ~assoc ~line in
      let prev = ref 0 and hits = ref 0 in
      List.for_all
        (fun (repeat, (l, off)) ->
          let l = if repeat = 0 then !prev else l in
          prev := l;
          let addr = (l * line) + off in
          let expect = model addr in
          if expect then incr hits;
          Cache.access c ~addr = expect)
        stream
      && Cache.hits c = !hits
      && Cache.misses c = List.length stream - !hits)

let prop_cache_l1 =
  let mc = Config.itanium2 () in
  prop_cache_matches_lru ~name:"cache == LRU lists (itanium2 L1)"
    ~size:mc.Config.l1_size ~assoc:mc.Config.l1_assoc ~line:mc.Config.l1_line

let prop_cache_l3_5_sets =
  let mc = Config.test_config () in
  prop_cache_matches_lru ~name:"cache == LRU lists (5-set test L3)"
    ~size:mc.Config.l3_size ~assoc:mc.Config.l3_assoc ~line:mc.Config.l3_line

(* ------------------------- interpreters ------------------------- *)

let test_interp_fig3_semantics () =
  let fx = Test_util.fig3 () in
  (* r0 = 1, r1 = 0: path B0 -> B1 -> B3 -> B2, so r2 = 7 stored at 100,
     r3 = r1+r1 = 0 stored at 101. *)
  let r =
    Interp.run
      ~init_regs:[ (Reg.of_int 0, 1); (Reg.of_int 1, 0); (Reg.of_int 4, 100) ]
      fx.Test_util.func ~mem_size:1024
  in
  Alcotest.(check int) "out" 7 r.Interp.memory.(100);
  Alcotest.(check int) "out2" 0 r.Interp.memory.(101);
  (* r0 = 0: direct path, r2 stays 5 *)
  let r2 =
    Interp.run
      ~init_regs:[ (Reg.of_int 0, 0); (Reg.of_int 4, 100) ]
      fx.Test_util.func ~mem_size:1024
  in
  Alcotest.(check int) "direct path" 5 r2.Interp.memory.(100)

let test_interp_fuel () =
  (* Infinite loop exhausts fuel rather than hanging. *)
  let b = Builder.create ~name:"inf" () in
  let b0 = Builder.block b in
  let b1 = Builder.block b in
  ignore (Builder.terminate b b0 (Instr.Jump b0));
  ignore (Builder.terminate b b1 Instr.Return);
  let f = Builder.finish b ~live_in:[] ~live_out:[] in
  (* Note: validator would reject (no reachable return); the interpreter
     must still terminate via fuel. *)
  let r = Interp.run ~fuel:1000 f ~mem_size:64 in
  Alcotest.(check bool) "fuel exhausted" true r.Interp.fuel_exhausted

let test_interp_rejects_comm () =
  let b = Builder.create ~name:"comm" () in
  let r0 = Builder.reg b in
  let b0 = Builder.block b in
  ignore (Builder.add b b0 (Instr.Produce (0, r0)));
  ignore (Builder.terminate b b0 Instr.Return);
  let f = Builder.finish b ~live_in:[] ~live_out:[] in
  (try
     ignore (Interp.run f ~mem_size:64);
     Alcotest.fail "expected Stuck"
   with Interp.Stuck _ -> ())

let test_mt_interp_deadlock_detection () =
  (* Two threads that each consume before producing: guaranteed deadlock. *)
  let mk name qin qout =
    let b = Builder.create ~name () in
    let v = Builder.reg b in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Consume (v, qin)));
    ignore (Builder.add b b0 (Instr.Produce (qout, v)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p =
    Mtprog.make ~name:"dl" ~threads:[| mk "a" 0 1; mk "b" 1 0 |] ~n_queues:2
  in
  let r = Mt_interp.run p ~queue_capacity:1 ~mem_size:64 in
  Alcotest.(check bool) "deadlocked" true r.Mt_interp.deadlocked

let test_mt_interp_pingpong () =
  (* Thread 0 sends 1; thread 1 doubles and returns; thread 0 stores. *)
  let t0 =
    let b = Builder.create ~name:"t0" () in
    let v = Builder.reg b and w = Builder.reg b and a = Builder.reg b in
    let m = Builder.region b "m" in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (v, 21)));
    ignore (Builder.add b b0 (Instr.Produce (0, v)));
    ignore (Builder.add b b0 (Instr.Consume (w, 1)));
    ignore (Builder.add b b0 (Instr.Const (a, 5)));
    ignore (Builder.add b b0 (Instr.Store (m, a, 0, w)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let t1 =
    let b = Builder.create ~name:"t1" () in
    let v = Builder.reg b and d = Builder.reg b in
    ignore (Builder.region b "m");
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Consume (v, 0)));
    ignore (Builder.add b b0 (Instr.Binop (Instr.Add, d, v, v)));
    ignore (Builder.add b b0 (Instr.Produce (1, d)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p = Mtprog.make ~name:"pp" ~threads:[| t0; t1 |] ~n_queues:2 in
  List.iter
    (fun sched ->
      let r = Mt_interp.run ~sched p ~queue_capacity:1 ~mem_size:64 in
      Alcotest.(check bool) "ok" false r.Mt_interp.deadlocked;
      Alcotest.(check int) "42" 42 r.Mt_interp.memory.(5);
      Alcotest.(check int) "comm count" 4 (Mt_interp.total_comm r))
    [ Mt_interp.Round_robin; Mt_interp.Random 7 ]

(* ------------------------- simulator ------------------------- *)

(* The single-threaded simulation is every MT cell's oracle, so on each
   suite kernel's reference input it must reproduce the reference
   interpreter: the same final memory and instruction count. *)
let test_sim_single_matches_interp_memory () =
  let module W = Gmt_workloads.Workload in
  List.iter
    (fun (w : W.t) ->
      let inp = w.W.reference in
      let r =
        Interp.run ~init_regs:inp.W.regs ~init_mem:inp.W.mem w.W.func
          ~mem_size:w.W.mem_size
      in
      let s =
        Sim.run_single ~init_regs:inp.W.regs ~init_mem:inp.W.mem
          (Config.itanium2 ()) w.W.func ~mem_size:w.W.mem_size
      in
      let name = w.W.name in
      Alcotest.(check bool) (name ^ ": completed") false
        (s.Sim.deadlocked || s.Sim.fuel_exhausted || r.Interp.fuel_exhausted);
      Alcotest.(check (array int)) (name ^ ": memory equal") r.Interp.memory
        s.Sim.memory;
      Alcotest.(check int) (name ^ ": instrs equal") r.Interp.dyn_instrs
        s.Sim.per_core.(0).Sim.instrs;
      Alcotest.(check bool) (name ^ ": cycles >= instrs issued") true
        (s.Sim.cycles >= s.Sim.per_core.(0).Sim.instrs / 6))
    (Gmt_workloads.Suite.all ())

let test_sim_issue_width_bound () =
  let w = Gmt_workloads.Suite.find "300.twolf" in
  let module W = Gmt_workloads.Workload in
  let s =
    Sim.run_single ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem
      (Config.itanium2 ()) w.W.func ~mem_size:w.W.mem_size
  in
  let st = s.Sim.per_core.(0) in
  Alcotest.(check bool) "IPC <= issue width" true
    (st.Sim.instrs <= 6 * s.Sim.cycles)

(* The issue slots are counted in one word, a byte per class, so an
   issue group wider than 255 is refused rather than miscounted; at 255
   the run still matches the legacy kernel. *)
let test_sim_issue_width_limit () =
  let w = Gmt_workloads.Suite.find "300.twolf" in
  let module W = Gmt_workloads.Workload in
  let p = Mtprog.make ~name:"twolf" ~threads:[| w.W.func |] ~n_queues:0 in
  let init_regs = w.W.train.W.regs and init_mem = w.W.train.W.mem in
  let mem_size = w.W.mem_size in
  let wide n =
    {
      (Config.itanium2 ()) with
      Config.issue_width = n;
      alu_units = n;
      mem_ports = n;
      fp_units = n;
      branch_units = n;
    }
  in
  Alcotest.check_raises "issue width 256"
    (Invalid_argument "Sim.run: issue_width above 255") (fun () ->
      ignore (Sim.run (wide 256) p ~mem_size));
  Alcotest.(check bool) "width 255 matches legacy" true
    (Gmt_machine.Legacy.run ~init_regs ~init_mem (wide 255) p ~mem_size
    = Sim.run ~init_regs ~init_mem (wide 255) p ~mem_size)

let test_sim_decoupling () =
  (* A producer loop and a consumer loop: with 32-entry queues the
     producer must run ahead (it finishes first or stalls on full). *)
  let n = 200 in
  let producer =
    let b = Builder.create ~name:"p" () in
    let i = Builder.reg b and lim = Builder.reg b and one = Builder.reg b in
    let c = Builder.reg b in
    let b0 = Builder.block b in
    let b1 = Builder.block b in
    let b2 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (i, 0)));
    ignore (Builder.add b b0 (Instr.Const (one, 1)));
    ignore (Builder.add b b0 (Instr.Const (lim, n)));
    ignore (Builder.terminate b b0 (Instr.Jump b1));
    ignore (Builder.add b b1 (Instr.Produce (0, i)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Add, i, i, one)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Lt, c, i, lim)));
    ignore (Builder.terminate b b1 (Instr.Branch (c, b1, b2)));
    ignore (Builder.terminate b b2 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let consumer =
    let b = Builder.create ~name:"c" () in
    let i = Builder.reg b and lim = Builder.reg b and one = Builder.reg b in
    let c = Builder.reg b and v = Builder.reg b and acc = Builder.reg b in
    let sq = Builder.reg b in
    let m = Builder.region b "m" in
    let b0 = Builder.block b in
    let b1 = Builder.block b in
    let b2 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (i, 0)));
    ignore (Builder.add b b0 (Instr.Const (one, 1)));
    ignore (Builder.add b b0 (Instr.Const (lim, n)));
    ignore (Builder.add b b0 (Instr.Const (acc, 0)));
    ignore (Builder.terminate b b0 (Instr.Jump b1));
    ignore (Builder.add b b1 (Instr.Consume (v, 0)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Fmul, sq, v, v)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Fadd, acc, acc, sq)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Add, i, i, one)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Lt, c, i, lim)));
    ignore (Builder.terminate b b1 (Instr.Branch (c, b1, b2)));
    ignore (Builder.add b b2 (Instr.Store (m, one, 0, acc)));
    ignore (Builder.terminate b b2 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p =
    Mtprog.make ~name:"pc" ~threads:[| producer; consumer |] ~n_queues:1
  in
  let s = Sim.run (Config.itanium2 ~queue_size:32 ()) p ~mem_size:64 in
  Alcotest.(check bool) "no deadlock" false s.Sim.deadlocked;
  Alcotest.(check bool) "producer finishes first" true
    (s.Sim.per_core.(0).Sim.finish_cycle < s.Sim.per_core.(1).Sim.finish_cycle);
  (* The consumer's FP recurrence bounds the rate: >= 4 cycles/iter. *)
  Alcotest.(check bool) "consumer rate bounded by fadd recurrence" true
    (s.Sim.cycles >= 4 * n)

let test_sim_deadlock_detected () =
  let mk name qin qout =
    let b = Builder.create ~name () in
    let v = Builder.reg b in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Consume (v, qin)));
    ignore (Builder.add b b0 (Instr.Produce (qout, v)));
    (* use the consumed value so the pending consume actually blocks *)
    let d = Builder.reg b in
    ignore (Builder.add b b0 (Instr.Binop (Instr.Add, d, v, v)));
    ignore (Builder.add b b0 (Instr.Store (Builder.region b "m", d, 0, d)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p =
    Mtprog.make ~name:"dl" ~threads:[| mk "a" 0 1; mk "b" 1 0 |] ~n_queues:2
  in
  let s = Sim.run ~fuel:2_000_000 (Config.test_config ()) p ~mem_size:64 in
  Alcotest.(check bool) "deadlock or starved" true
    (s.Sim.deadlocked || s.Sim.fuel_exhausted)

let test_sim_stall_on_use () =
  (* A consume with an empty queue must not block the issue of later
     independent instructions (stall-on-use). Thread 1 consumes, then has
     10 independent adds, then uses the value; thread 0 produces late. *)
  let t0 =
    let b = Builder.create ~name:"late" () in
    let x = Builder.reg b and one = Builder.reg b and c = Builder.reg b in
    let i = Builder.reg b in
    let b0 = Builder.block b in
    let b1 = Builder.block b in
    let b2 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (i, 0)));
    ignore (Builder.add b b0 (Instr.Const (one, 1)));
    ignore (Builder.add b b0 (Instr.Const (x, 100)));
    ignore (Builder.terminate b b0 (Instr.Jump b1));
    (* spin for a while *)
    ignore (Builder.add b b1 (Instr.Binop (Instr.Add, i, i, one)));
    ignore (Builder.add b b1 (Instr.Binop (Instr.Lt, c, i, x)));
    ignore (Builder.terminate b b1 (Instr.Branch (c, b1, b2)));
    ignore (Builder.add b b2 (Instr.Produce (0, i)));
    ignore (Builder.terminate b b2 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let t1 =
    let b = Builder.create ~name:"early" () in
    let v = Builder.reg b and a = Builder.reg b and one = Builder.reg b in
    let m = Builder.region b "m" in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (one, 1)));
    ignore (Builder.add b b0 (Instr.Const (a, 0)));
    ignore (Builder.add b b0 (Instr.Consume (v, 0)));
    (* independent work that must retire while the consume is pending *)
    for _ = 1 to 10 do
      ignore (Builder.add b b0 (Instr.Binop (Instr.Add, a, a, one)))
    done;
    let s = Builder.reg b in
    ignore (Builder.add b b0 (Instr.Binop (Instr.Add, s, a, v)));
    ignore (Builder.add b b0 (Instr.Store (m, one, 0, s)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p = Mtprog.make ~name:"sou" ~threads:[| t0; t1 |] ~n_queues:1 in
  let s = Sim.run (Config.itanium2 ()) p ~mem_size:64 in
  Alcotest.(check bool) "no deadlock" false s.Sim.deadlocked;
  Alcotest.(check int) "value correct" 110 s.Sim.memory.(1);
  (* thread 1 stalled on data only at the use, so its data stalls are well
     below thread 0's spin time *)
  Alcotest.(check bool) "independent work overlapped" true
    (s.Sim.per_core.(1).Sim.stall_data <= s.Sim.cycles)

let test_sim_sync_fences_memory () =
  (* T0 stores then produce.sync; T1 consume.sync then loads: T1 must see
     the store under the cycle model too. *)
  let t0 =
    let b = Builder.create ~name:"w" () in
    let a = Builder.reg b and v = Builder.reg b in
    let m = Builder.region b "m" in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (a, 3)));
    ignore (Builder.add b b0 (Instr.Const (v, 77)));
    ignore (Builder.add b b0 (Instr.Store (m, a, 0, v)));
    ignore (Builder.add b b0 (Instr.Produce_sync 0));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let t1 =
    let b = Builder.create ~name:"r" () in
    let a = Builder.reg b and v = Builder.reg b and o = Builder.reg b in
    let m = Builder.region b "m" in
    let b0 = Builder.block b in
    ignore (Builder.add b b0 (Instr.Const (a, 3)));
    ignore (Builder.add b b0 (Instr.Const (o, 4)));
    ignore (Builder.add b b0 (Instr.Consume_sync 0));
    ignore (Builder.add b b0 (Instr.Load (m, v, a, 0)));
    ignore (Builder.add b b0 (Instr.Store (m, o, 0, v)));
    ignore (Builder.terminate b b0 Instr.Return);
    Builder.finish b ~live_in:[] ~live_out:[]
  in
  let p = Mtprog.make ~name:"sync" ~threads:[| t0; t1 |] ~n_queues:1 in
  let s = Sim.run (Config.itanium2 ()) p ~mem_size:64 in
  Alcotest.(check bool) "ok" false s.Sim.deadlocked;
  Alcotest.(check int) "forwarded" 77 s.Sim.memory.(4)

(* ------------------- the Fig-6 machine, exactly ------------------- *)

(* One block: [r0] live in at 0, then [n] instructions, each made by
   [instr b ~r0 ~m], then [Return]. *)
let straight_line n instr =
  let b = Builder.create ~name:"fig6" () in
  let r0 = Builder.reg b in
  let m = Builder.region b "m" in
  let b0 = Builder.block b in
  for _ = 1 to n do
    ignore (Builder.add b b0 (instr b ~r0 ~m))
  done;
  ignore (Builder.terminate b b0 Instr.Return);
  Builder.finish b ~live_in:[ r0 ] ~live_out:[]

(* Single-core kernels whose cycle counts have closed forms on the
   Fig-6 core, each a (name, instruction, memory, expected count). A
   thread's count ends in the cycle its [Return] issues (sim.mli), so a
   chain of latency [l] takes [l * (n - 1) + 1] cycles, and [n]
   independent ops of a class with [u] units issue in groups of [u] with
   [Return] in the last group, unless that group fills the issue
   width. *)
let fig6_kernels (mc : Config.t) =
  let chain op l =
    ( (fun _ ~r0 ~m:_ -> Instr.Binop (op, r0, r0, r0)),
      (fun _ -> []),
      fun n -> (l * (n - 1)) + 1 )
  in
  let independent make units =
    ( make,
      (fun _ -> []),
      fun n ->
        let u = min units mc.Config.issue_width in
        let groups = (n + u - 1) / u in
        groups + if n - (u * (groups - 1)) = mc.Config.issue_width then 1 else 0
    )
  in
  [
    ("add chain", chain Instr.Add mc.Config.alu_latency);
    ("mul chain", chain Instr.Mul 3);
    ("div chain", chain Instr.Div 8);
    ("fadd chain", chain Instr.Fadd mc.Config.fp_latency);
    (* Word [1024 k] holds [1024 (k + 1)]: each load reads a line no
       earlier load touched, at the address the previous one loaded. *)
    ( "pointer chase",
      ( (fun _ ~r0 ~m -> Instr.Load (m, r0, r0, 0)),
        (fun n -> List.init n (fun k -> (1024 * k, 1024 * (k + 1)))),
        fun n -> ((n - 1) * mc.Config.mem_latency) + 1 ) );
    ( "independent adds",
      independent
        (fun b ~r0 ~m:_ -> Instr.Binop (Instr.Add, Builder.reg b, r0, r0))
        mc.Config.alu_units );
    ( "independent fadds",
      independent
        (fun b ~r0 ~m:_ -> Instr.Binop (Instr.Fadd, Builder.reg b, r0, r0))
        mc.Config.fp_units );
    ( "loads of one word",
      independent
        (fun b ~r0 ~m -> Instr.Load (m, Builder.reg b, r0, 0))
        mc.Config.mem_ports );
  ]

let test_sim_fig6_table () =
  let mc = Config.itanium2 () in
  Alcotest.(check (list int))
    "itanium2 is Fig 6(a): widths, units, latencies, SA"
    [ 6; 6; 2; 4; 3; 1; 4; 1; 7; 12; 141; 1; 4 ]
    Config.
      [ mc.issue_width; mc.alu_units; mc.fp_units; mc.mem_ports;
        mc.branch_units; mc.alu_latency; mc.fp_latency; mc.l1_latency;
        mc.l2_latency; mc.l3_latency; mc.mem_latency; mc.sa_latency;
        mc.sa_ports ];
  (* Room for the longest pointer chase: 120 lines 1024 words apart. *)
  let mem_size = 1 lsl 17 in
  List.iter
    (fun (name, (instr, init_mem, expect)) ->
      List.iter
        (fun n ->
          let f = straight_line n instr and init_mem = init_mem n in
          let p = Mtprog.make ~name:"fig6" ~threads:[| f |] ~n_queues:0 in
          List.iter
            (fun (engine, (r : Sim.result)) ->
              Alcotest.(check int)
                (Printf.sprintf "%s, n=%d, %s" name n engine)
                (expect n) r.Sim.cycles)
            [
              ("sim", Sim.run_single ~init_mem mc f ~mem_size);
              ("legacy", Gmt_machine.Legacy.run ~init_mem mc p ~mem_size);
            ])
        [ 1; 7; 12; 13; 120 ])
    (fig6_kernels mc)

let tests =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache probe" `Quick test_cache_probe_no_state_change;
    QCheck_alcotest.to_alcotest prop_cache_l1;
    QCheck_alcotest.to_alcotest prop_cache_l3_5_sets;
    Alcotest.test_case "interp fig3 semantics" `Quick
      test_interp_fig3_semantics;
    Alcotest.test_case "interp fuel" `Quick test_interp_fuel;
    Alcotest.test_case "interp rejects comm" `Quick test_interp_rejects_comm;
    Alcotest.test_case "mt deadlock detection" `Quick
      test_mt_interp_deadlock_detection;
    Alcotest.test_case "mt ping-pong" `Quick test_mt_interp_pingpong;
    Alcotest.test_case "sim matches interp" `Quick
      test_sim_single_matches_interp_memory;
    Alcotest.test_case "sim issue bound" `Quick test_sim_issue_width_bound;
    Alcotest.test_case "sim issue width limit" `Quick
      test_sim_issue_width_limit;
    Alcotest.test_case "sim decoupling" `Quick test_sim_decoupling;
    Alcotest.test_case "sim deadlock" `Quick test_sim_deadlock_detected;
    Alcotest.test_case "sim stall-on-use" `Quick test_sim_stall_on_use;
    Alcotest.test_case "sim sync fence" `Quick test_sim_sync_fences_memory;
    Alcotest.test_case "sim fig6 table" `Quick test_sim_fig6_table;
  ]
