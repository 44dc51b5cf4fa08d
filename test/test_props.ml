(* Property-based testing: random structured programs, random partitions.

   The central invariant of the whole system — MTCG (with or without
   COCO placements) produces multi-threaded code that is observationally
   equivalent to the single-threaded original and deadlock-free for ANY
   partition — is exercised here on randomly generated programs with
   nested loops, hammocks, loads and stores, under random thread
   assignments, several schedulers and queue capacities.

   The statement AST, its IR lowering and the fixed interpreter inputs
   live in {!Gmt_frontend.Gen}, shared with the corpus fuzzer; this file
   keeps only the QCheck shape generator and the properties. *)

open Gmt_ir
module G = Gmt_frontend.Gen
module Interp = Gmt_machine.Interp
module Mt_interp = Gmt_machine.Mt_interp
module Mtcg = Gmt_mtcg.Mtcg
module Partition = Gmt_sched.Partition

(* ------------------- random structured programs ------------------- *)

let n_pool = G.n_pool
let mem_size = G.mem_size

let gen_stmt : G.stmt QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 (n_pool - 1) in
  let region = int_range 0 (G.n_regions - 1) in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            map
              (fun (o, d, a, b) -> G.Arith (o, d, a, b))
              (quad (int_range 0 (Array.length G.ops - 1)) reg reg reg);
            map (fun (r, d, a) -> G.Mload (r, d, a)) (triple region reg reg);
            map (fun (r, a, s) -> G.Mstore (r, a, s)) (triple region reg reg);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              map
                (fun (c, t, e) -> G.If (c, t, e))
                (triple reg
                   (list_size (int_range 1 4) (self (depth - 1)))
                   (list_size (int_range 0 3) (self (depth - 1)))) );
            ( 1,
              map
                (fun (n, b) -> G.Loop (n, b))
                (pair (int_range 1 3)
                   (list_size (int_range 1 4) (self (depth - 1)))) );
          ])
    2

let gen_prog = QCheck.Gen.(list_size (int_range 2 10) gen_stmt)
let lower stmts = G.lower stmts

(* Deterministic pseudo-random partition of a function. *)
let random_partition f ~n_threads ~seed =
  let state = ref (seed lor 1) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  let pairs = ref [] in
  Cfg.iter_instrs f.Func.cfg (fun _ (i : Instr.t) ->
      if not (Instr.is_structural i) then
        pairs := (i.Instr.id, next () mod n_threads) :: !pairs);
  Partition.make ~n_threads !pairs

let init_regs = G.init_regs
let init_mem = G.init_mem

let st_memory f =
  let r = Interp.run ~init_regs ~init_mem ~fuel:200_000 f ~mem_size in
  if r.Interp.fuel_exhausted then None else Some r.Interp.memory

let mt_equiv ?(caps = [ 1; 4 ]) f mtp expect =
  List.for_all
    (fun cap ->
      List.for_all
        (fun sched ->
          let r =
            Mt_interp.run ~sched ~init_regs ~init_mem ~fuel:2_000_000 mtp
              ~queue_capacity:cap ~mem_size
          in
          (not r.Mt_interp.deadlocked)
          && (not r.Mt_interp.fuel_exhausted)
          && r.Mt_interp.queues_drained
          && r.Mt_interp.memory = expect)
        [ Mt_interp.Round_robin; Mt_interp.Random 3; Mt_interp.Random 99 ])
    caps
  && (ignore f;
      true)

let arbitrary_case =
  QCheck.make
    ~print:(fun (stmts, seed, n_threads) ->
      Printf.sprintf "seed=%d threads=%d prog=%s" seed n_threads
        (Printer.func_to_string (lower stmts)))
    QCheck.Gen.(triple gen_prog (int_range 0 10_000) (int_range 2 3))

let prop_mtcg_equivalent =
  QCheck.Test.make ~count:120 ~name:"MTCG equivalence on random programs"
    arbitrary_case
    (fun (stmts, seed, n_threads) ->
      let f = lower stmts in
      Validate.check f;
      let pdg = Gmt_pdg.Pdg.build f in
      let part = random_partition f ~n_threads ~seed in
      let mtp = Mtcg.run pdg part in
      Array.iter Validate.check mtp.Mtprog.threads;
      match st_memory f with
      | None -> true (* pathological fuel case: skip *)
      | Some expect -> mt_equiv f mtp expect)

let prop_coco_equivalent_and_cheaper =
  QCheck.Test.make ~count:80
    ~name:"COCO equivalence + never more communication" arbitrary_case
    (fun (stmts, seed, n_threads) ->
      let f = lower stmts in
      let pdg = Gmt_pdg.Pdg.build f in
      let part = random_partition f ~n_threads ~seed in
      let profile =
        (Interp.run ~init_regs ~init_mem ~fuel:200_000 f ~mem_size)
          .Interp.profile
      in
      let base_plan = Mtcg.baseline_plan pdg part in
      let coco_plan, _ = Gmt_coco.Coco.optimize pdg part profile in
      let base = Mtcg.generate pdg part base_plan in
      let coco = Mtcg.generate pdg part coco_plan in
      match st_memory f with
      | None -> true
      | Some expect ->
        let run mtp =
          Mt_interp.run ~init_regs ~init_mem ~fuel:2_000_000 mtp
            ~queue_capacity:4 ~mem_size
        in
        let rb = run base and rc = run coco in
        mt_equiv f coco expect
        && (not rb.Mt_interp.deadlocked)
        && Mt_interp.total_comm rc <= Mt_interp.total_comm rb)

let prop_dswp_partition_equivalent =
  (* The partitioners themselves on random programs (profile-driven). *)
  QCheck.Test.make ~count:60 ~name:"DSWP+GREMIO partitions on random programs"
    arbitrary_case
    (fun (stmts, _seed, n_threads) ->
      let f = lower stmts in
      let pdg = Gmt_pdg.Pdg.build f in
      let profile =
        (Interp.run ~init_regs ~init_mem ~fuel:200_000 f ~mem_size)
          .Interp.profile
      in
      let ok part =
        Partition.errors part f = []
        &&
        let mtp = Mtcg.run pdg part in
        match st_memory f with
        | None -> true
        | Some expect -> mt_equiv ~caps:[ 2 ] f mtp expect
      in
      ok (Gmt_sched.Dswp.partition ~n_threads pdg profile)
      && ok (Gmt_sched.Gremio.partition ~n_threads pdg profile))

(* ------------- dataflow point facts against a re-walk ------------- *)

module Df = Gmt_analysis.Dataflow

(* [holds cfg queries]: each (id, before) point fact the engine answers
   equals a walk of the instruction's block from the solved boundary
   fact, up to that point. *)
module Rewalk (P : Df.PROBLEM) = struct
  module S = Df.Make (P)

  let holds cfg queries =
    let r = S.solve cfg in
    let rewalk id ~before =
      let l, idx = Cfg.position cfg id in
      let body = List.mapi (fun k ins -> (k, ins)) (Cfg.body cfg l) in
      match P.direction with
      | Df.Forward ->
        List.fold_left
          (fun fact (k, ins) ->
            if k < idx || ((not before) && k = idx) then P.transfer ins fact
            else fact)
          (S.block_in r l) body
      | Df.Backward ->
        List.fold_right
          (fun (k, ins) fact ->
            if k > idx || (before && k = idx) then P.transfer ins fact
            else fact)
          body (S.block_out r l)
    in
    List.for_all
      (fun (id, before) ->
        let got = if before then S.before r id else S.after r id in
        P.equal got (rewalk id ~before))
      queries
end

module Defs = Set.Make (struct
  type t = int * Reg.t

  let compare = compare
end)

let prop_dataflow_points =
  QCheck.Test.make ~count:100 ~name:"dataflow point facts equal a block re-walk"
    arbitrary_case
    (fun (stmts, seed, n_threads) ->
      let f = lower stmts in
      let cfg = f.Func.cfg in
      let part = random_partition f ~n_threads ~seed in
      (* Every point before and after every instruction, shuffled. *)
      let queries =
        Array.of_list
          (List.concat_map
             (fun (i : Instr.t) -> [ (i.Instr.id, true); (i.Instr.id, false) ])
             (Cfg.instrs cfg))
      in
      let rng = Random.State.make [| seed |] in
      for k = Array.length queries - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let q = queries.(k) in
        queries.(k) <- queries.(j);
        queries.(j) <- q
      done;
      let queries = Array.to_list queries in
      (* Reaching definitions: a forward may-problem. *)
      let module Reaching = Rewalk (struct
        type fact = Defs.t

        let direction = Df.Forward
        let equal = Defs.equal
        let meet = Defs.union
        let boundary = Defs.of_list (List.map (fun r -> (-1, r)) f.Func.live_in)
        let start = Defs.empty

        let transfer (i : Instr.t) fact =
          List.fold_left
            (fun s d ->
              Defs.add (i.Instr.id, d)
                (Defs.filter (fun (_, r) -> not (Reg.equal r d)) s))
            fact (Instr.defs i)
      end) in
      (* Liveness: a backward may-problem. *)
      let module Live = Rewalk (struct
        type fact = Reg.Set.t

        let direction = Df.Backward
        let equal = Reg.Set.equal
        let meet = Reg.Set.union
        let boundary = Reg.Set.of_list f.Func.live_out
        let start = Reg.Set.empty

        let transfer i fact =
          List.fold_left (fun s u -> Reg.Set.add u s)
            (List.fold_left (fun s d -> Reg.Set.remove d s) fact (Instr.defs i))
            (Instr.uses i)
      end) in
      (* Thread 0's safe registers, as COCO's SAFE: a forward
         must-problem (intersection meet, universe start). *)
      let module Safe = Rewalk (struct
        type fact = Reg.Set.t

        let direction = Df.Forward
        let equal = Reg.Set.equal
        let meet = Reg.Set.inter
        let boundary = Reg.Set.empty
        let start = Reg.Set.of_list (List.init f.Func.n_regs Reg.of_int)

        let transfer (i : Instr.t) fact =
          if Partition.thread_of_opt part i.Instr.id = Some 0 then
            List.fold_left (fun s r -> Reg.Set.add r s) fact
              (Instr.defs i @ Instr.uses i)
          else List.fold_left (fun s d -> Reg.Set.remove d s) fact (Instr.defs i)
      end) in
      Reaching.holds cfg queries && Live.holds cfg queries
      && Safe.holds cfg queries)

(* The train profile COCO's min-cuts read is a flow. A completed run
   enters every block along its counted in-edges (the entry block once
   more, at the start) and leaves it along its counted out-edges, over
   distinct successors, unless it returns; the counts also account for
   every instruction the run executed. *)
let prop_interp_profile_flow =
  QCheck.Test.make ~count:100 ~name:"interp profile is a flow"
    arbitrary_case
    (fun (stmts, _seed, _n_threads) ->
      let f = lower stmts in
      let r = Interp.run ~init_regs ~init_mem ~fuel:200_000 f ~mem_size in
      r.Interp.fuel_exhausted
      ||
      let module P = Gmt_analysis.Profile in
      let cfg = f.Func.cfg and p = r.Interp.profile in
      let sum_over labels count =
        List.fold_left (fun acc l -> acc + count l) 0
          (List.sort_uniq compare labels)
      in
      let flows b =
        let n = P.block p b in
        n
        = Bool.to_int (b = Cfg.entry cfg)
          + sum_over (Cfg.preds cfg b) (fun s -> P.edge p ~src:s ~dst:b)
        &&
        match (Cfg.terminator cfg b).Instr.op with
        | Instr.Return -> true
        | _ -> n = sum_over (Cfg.succs cfg b) (fun d -> P.edge p ~src:b ~dst:d)
      in
      let labels = List.init (Cfg.n_blocks cfg) Fun.id in
      List.for_all flows labels
      && sum_over labels (fun b ->
             P.block p b * List.length (Cfg.body cfg b))
         = r.Interp.dyn_instrs)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_mtcg_equivalent;
    QCheck_alcotest.to_alcotest prop_coco_equivalent_and_cheaper;
    QCheck_alcotest.to_alcotest prop_dswp_partition_equivalent;
    QCheck_alcotest.to_alcotest prop_dataflow_points;
    QCheck_alcotest.to_alcotest prop_interp_profile_flow;
  ]
