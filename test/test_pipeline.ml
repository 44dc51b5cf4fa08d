(* End-to-end integration over the whole workload suite: for every
   (workload x partitioner x +/-COCO), the generated multi-threaded code
   must compute the same memory state as the single-threaded original,
   without deadlock, under several schedulers and queue capacities — and
   COCO must never increase dynamic communication (the paper observes
   "COCO never resulted in an increase"). Train inputs keep this fast;
   bench/main.exe exercises the reference inputs. *)

open Gmt_ir
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite
module V = Gmt_core.Velocity
module Interp = Gmt_machine.Interp
module Mt_interp = Gmt_machine.Mt_interp
module Mtcg = Gmt_mtcg.Mtcg
module Comm = Gmt_mtcg.Comm

let st_memory (w : W.t) =
  (Interp.run ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem w.W.func
     ~mem_size:w.W.mem_size)
    .Interp.memory

let mt_run ?(sched = Mt_interp.Round_robin) (w : W.t) mtp ~queue_capacity =
  Mt_interp.run ~sched ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem
    mtp ~queue_capacity ~mem_size:w.W.mem_size

let compiled = Hashtbl.create 16

let compile_cached tech coco (w : W.t) =
  let key = (w.W.name, tech, coco) in
  match Hashtbl.find_opt compiled key with
  | Some c -> c
  | None ->
    let c = V.compile ~coco tech w in
    Hashtbl.add compiled key c;
    c

let check_config tech coco =
  List.iter
    (fun (w : W.t) ->
      let c = compile_cached tech coco w in
      let expect = st_memory w in
      Array.iter Validate.check c.V.mtp.Mtprog.threads;
      List.iter
        (fun (sched, sname) ->
          List.iter
            (fun cap ->
              let r = mt_run ~sched w c.V.mtp ~queue_capacity:cap in
              let label =
                Printf.sprintf "%s/%s%s/%s/cap%d" w.W.name
                  (V.technique_name tech)
                  (if coco then "+COCO" else "")
                  sname cap
              in
              Alcotest.(check bool) (label ^ " no deadlock") false
                r.Mt_interp.deadlocked;
              Alcotest.(check bool) (label ^ " drained") true
                r.Mt_interp.queues_drained;
              Alcotest.(check (array int)) (label ^ " memory") expect
                r.Mt_interp.memory)
            [ 1; 32 ])
        [ (Mt_interp.Round_robin, "rr"); (Mt_interp.Random 13, "rand") ])
    (Suite.all ())

let test_gremio_baseline () = check_config V.Gremio false
let test_gremio_coco () = check_config V.Gremio true
let test_dswp_baseline () = check_config V.Dswp false
let test_dswp_coco () = check_config V.Dswp true

let test_coco_never_worse () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun tech ->
          let base = compile_cached tech false w in
          let coco = compile_cached tech true w in
          let cb = mt_run w base.V.mtp ~queue_capacity:32 in
          let cc = mt_run w coco.V.mtp ~queue_capacity:32 in
          let b = Mt_interp.total_comm cb and c = Mt_interp.total_comm cc in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s coco(%d) <= mtcg(%d)" w.W.name
               (V.technique_name tech) c b)
            true (c <= b))
        [ V.Gremio; V.Dswp ])
    (Suite.all ())

let test_coco_no_fallbacks () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun tech ->
          let c = compile_cached tech true w in
          match c.V.coco_stats with
          | Some s ->
            Alcotest.(check int)
              (w.W.name ^ " fallbacks")
              0 s.Gmt_coco.Coco.fallbacks
          | None -> Alcotest.fail "expected coco stats")
        [ V.Gremio; V.Dswp ])
    (Suite.all ())

(* Properties 2 and 3: every register communication in a COCO plan sits at
   a point that is safe for the source thread and relevant to it. *)
let test_plan_points_safe_and_relevant () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun tech ->
          let c = compile_cached tech true w in
          let f = w.W.func in
          let cd = Gmt_analysis.Controldep.compute f in
          let rel =
            Gmt_mtcg.Relevant.compute f cd c.V.partition c.V.plan.Mtcg.comms
          in
          List.iter
            (fun (comm : Comm.t) ->
              (* Property 2: relevant to the source thread. *)
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s relevant to T%d" w.W.name
                   (Comm.point_to_string comm.Comm.point)
                   comm.Comm.src)
                true
                (Gmt_mtcg.Relevant.point_relevant rel ~thread:comm.Comm.src
                   f.Func.cfg cd comm.Comm.point);
              (* Property 3: safe for registers. *)
              match comm.Comm.payload with
              | Comm.Sync -> ()
              | Comm.Data r ->
                let safety =
                  Gmt_coco.Safety.compute f c.V.partition
                    ~thread:comm.Comm.src
                in
                let ok =
                  match comm.Comm.point with
                  | Comm.Before id ->
                    Reg.Set.mem r (Gmt_coco.Safety.safe_before safety id)
                  | Comm.After id ->
                    Reg.Set.mem r (Gmt_coco.Safety.safe_after safety id)
                  | Comm.Block_entry l ->
                    Reg.Set.mem r (Gmt_coco.Safety.safe_at_entry safety l)
                  | Comm.On_edge (a, _) ->
                    Reg.Set.mem r
                      (Gmt_coco.Safety.safe_after safety
                         (Cfg.terminator f.Func.cfg a).Instr.id)
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s safe" w.W.name
                     (Comm.point_to_string comm.Comm.point))
                  true ok)
            c.V.plan.Mtcg.comms)
        [ V.Gremio; V.Dswp ])
    (Suite.all ())

(* Property 1 at runtime: queues drain exactly (every produce matched by a
   consume) — checked by queues_drained above — and the number of dynamic
   produces equals consumes. *)
let test_produce_consume_balance () =
  List.iter
    (fun (w : W.t) ->
      let c = compile_cached V.Gremio true w in
      let r = mt_run w c.V.mtp ~queue_capacity:32 in
      let p =
        Array.fold_left
          (fun a (t : Mt_interp.thread_stats) ->
            a + t.Mt_interp.produces + t.Mt_interp.produce_syncs)
          0 r.Mt_interp.threads
      in
      let cns =
        Array.fold_left
          (fun a (t : Mt_interp.thread_stats) ->
            a + t.Mt_interp.consumes + t.Mt_interp.consume_syncs)
          0 r.Mt_interp.threads
      in
      Alcotest.(check int) (w.W.name ^ " produce=consume") p cns)
    (Suite.all ())

(* Three and four threads: MTCG correctness must hold beyond the paper's
   two-thread evaluation. *)
let test_many_threads () =
  List.iter
    (fun n ->
      List.iter
        (fun (w : W.t) ->
          let profile =
            (Interp.run ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem
               w.W.func ~mem_size:w.W.mem_size)
              .Interp.profile
          in
          let pdg = Gmt_pdg.Pdg.build w.W.func in
          List.iter
            (fun part ->
              let mtp = Mtcg.run pdg part in
              let expect = st_memory w in
              let r = mt_run w mtp ~queue_capacity:32 in
              Alcotest.(check bool)
                (Printf.sprintf "%s %d-thread deadlock-free" w.W.name n)
                false r.Mt_interp.deadlocked;
              Alcotest.(check (array int))
                (Printf.sprintf "%s %d-thread memory" w.W.name n)
                expect r.Mt_interp.memory)
            [
              Gmt_sched.Gremio.partition ~n_threads:n pdg profile;
              Gmt_sched.Dswp.partition ~n_threads:n pdg profile;
            ])
        [ Suite.find "ks"; Suite.find "177.mesa"; Suite.find "adpcmdec" ])
    [ 3; 4 ]

(* The digest a warm run's final image is checked against, written out
   here from its definition: the MD5 of the MD5s of 512-word chunks,
   each word as a little-endian int64, the last chunk possibly short. *)
let reference_digest (memory : int array) =
  let n = Array.length memory in
  let sums = Buffer.create 16 in
  let i = ref 0 in
  while !i < n do
    let len = min 512 (n - !i) in
    let b = Bytes.create (8 * len) in
    for j = 0 to len - 1 do
      Bytes.set_int64_le b (8 * j) (Int64.of_int memory.(!i + j))
    done;
    Buffer.add_string sums (Digest.bytes b);
    i := !i + len
  done;
  Digest.string (Buffer.contents sums)

let test_memory_digest () =
  let check label memory =
    Alcotest.(check string) label
      (Digest.to_hex (reference_digest memory))
      (Digest.to_hex (V.memory_digest memory))
  in
  check "all zero" (Array.make 4096 0);
  let last = Array.make 4096 0 in
  last.(1023) <- -7;
  check "only the last word of a chunk set" last;
  check "64 words" (Array.init 64 (fun i -> i * i));
  check "64 zero words" (Array.make 64 0);
  check "1000 words" (Array.init 1000 (fun i -> if i mod 3 = 0 then 0 else i));
  check "1000 zero words" (Array.make 1000 0);
  let _, (image, _) = V.measure_reference (Suite.find "ks") in
  check "ks reference image" image;
  Alcotest.(check string) "ks reference image, pinned"
    "ca92f495aad789ae419c97566b9114f8"
    (Digest.to_hex (V.memory_digest image))

let tests =
  [
    Alcotest.test_case "gremio baseline suite" `Quick test_gremio_baseline;
    Alcotest.test_case "gremio coco suite" `Quick test_gremio_coco;
    Alcotest.test_case "dswp baseline suite" `Quick test_dswp_baseline;
    Alcotest.test_case "dswp coco suite" `Quick test_dswp_coco;
    Alcotest.test_case "coco never worse" `Quick test_coco_never_worse;
    Alcotest.test_case "coco no fallbacks" `Quick test_coco_no_fallbacks;
    Alcotest.test_case "plan points safe+relevant" `Quick
      test_plan_points_safe_and_relevant;
    Alcotest.test_case "produce/consume balance" `Quick
      test_produce_consume_balance;
    Alcotest.test_case "3 and 4 threads" `Quick test_many_threads;
    Alcotest.test_case "memory digest value" `Quick test_memory_digest;
  ]
