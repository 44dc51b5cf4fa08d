open Gmt_ir
module Pdg = Gmt_pdg.Pdg
module Partition = Gmt_sched.Partition
module Controldep = Gmt_analysis.Controldep
module Profile = Gmt_analysis.Profile
module Relevant = Gmt_mtcg.Relevant
module Comm = Gmt_mtcg.Comm
module Mtcg = Gmt_mtcg.Mtcg
module Topo = Gmt_graphalg.Topo

type stats = {
  iterations : int;
  register_cuts : int;
  memory_cuts : int;
  fallbacks : int;
}

type spec = Comm.payload * int * int * Comm.point

(* Bound on Algorithm 2's repeat-until loop. *)
let max_iterations = 10

let optimize ?(control_penalty = true) pdg partition profile =
  let f = Pdg.func pdg in
  let cfg = f.Func.cfg in
  let cd = Controldep.compute f in
  let n_threads = Partition.n_threads partition in
  let reg_cuts = ref 0 and mem_cuts = ref 0 and fallbacks = ref 0 in
  (* Quasi-topological order over thread pairs: when the thread graph is a
     pipeline (DSWP), processing pairs in flow order makes the relevance
     fixpoint converge in one pass. *)
  let pair_rank =
    let g = Partition.thread_graph partition pdg in
    match Topo.sort_opt g with
    | Some order ->
      let idx = Array.make n_threads 0 in
      List.iteri (fun i t -> idx.(t) <- i) order;
      fun (ts, tt) -> (idx.(ts), idx.(tt))
    | None -> fun (ts, tt) -> (ts, tt)
  in
  (* All communications ever planned; drives relevance growth across
     iterations (relevant sets only grow, ensuring convergence). *)
  let relevance_specs : (spec, unit) Hashtbl.t = Hashtbl.create 64 in
  let specs_to_comms () =
    Hashtbl.fold (fun s () acc -> s :: acc) relevance_specs []
    |> List.sort compare |> Comm.number
  in
  let compute_rel () =
    Relevant.compute f cd partition (specs_to_comms ())
  in
  (* Register and memory work for a thread pair under current relevance. *)
  let regs_for rel ts tt =
    List.filter_map
      (fun (a : Pdg.arc) ->
        match a.kind with
        | Pdg.Reg r -> (
          match
            (Partition.thread_of_opt partition a.src,
             Partition.thread_of_opt partition a.dst)
          with
          | Some s, Some d when s = ts && s <> tt ->
            let target_use =
              d = tt
              || Relevant.is_relevant_branch rel ~thread:tt ~branch_id:a.dst
                 && Instr.is_branch (Cfg.find_instr cfg a.dst)
            in
            if target_use then Some r else None
          | _ -> None)
        | _ -> None)
      (Pdg.arcs pdg)
    |> List.sort_uniq Reg.compare
  in
  let mem_pairs_for ts tt =
    List.filter_map
      (fun (a : Pdg.arc) ->
        match a.kind with
        | Pdg.Mem _ -> (
          match
            (Partition.thread_of_opt partition a.src,
             Partition.thread_of_opt partition a.dst)
          with
          | Some s, Some d when s = ts && d = tt -> Some (a.src, a.dst)
          | _ -> None)
        | _ -> None)
      (Pdg.arcs pdg)
    |> List.sort_uniq compare
  in
  let final_specs = ref [] in
  let prev_specs = ref None in
  let iterations = ref 0 in
  (try
     for iter = 1 to max_iterations do
       incr iterations;
       Gmt_obs.Obs.span ~args:[ ("iter", Gmt_obs.Obs.I iter) ]
         "coco.iteration"
       @@ fun () ->
       let iter_specs = ref [] in
       (* Candidate pairs: any pair with register or memory work. *)
       let rel0 = compute_rel () in
       let pairs = ref [] in
       for ts = 0 to n_threads - 1 do
         for tt = 0 to n_threads - 1 do
           if ts <> tt then
             if regs_for rel0 ts tt <> [] || mem_pairs_for ts tt <> [] then
               pairs := (ts, tt) :: !pairs
         done
       done;
       let pairs =
         List.sort (fun a b -> compare (pair_rank a) (pair_rank b)) !pairs
       in
       List.iter
         (fun (ts, tt) ->
           let rel = compute_rel () in
           let ctx =
             {
               Flowgraph.func = f;
               cd;
               profile;
               partition;
               rel;
               src_thread = ts;
               dst_thread = tt;
               control_penalty;
             }
           in
           let safety = Safety.compute f partition ~thread:ts in
           let tlive = Thread_live.compute f partition rel ~thread:tt in
           let pair_specs = ref [] in
           List.iter
             (fun r ->
               incr reg_cuts;
               let res = Flowgraph.solve_register ctx ~reg:r ~safety ~tlive in
               if not res.Flowgraph.finite then incr fallbacks;
               List.iter
                 (fun p -> pair_specs := (Comm.Data r, ts, tt, p) :: !pair_specs)
                 res.Flowgraph.points)
             (regs_for rel ts tt);
           (match mem_pairs_for ts tt with
           | [] -> ()
           | mps ->
             incr mem_cuts;
             let res = Flowgraph.solve_memory ctx ~pairs:mps in
             List.iter
               (fun p -> pair_specs := (Comm.Sync, ts, tt, p) :: !pair_specs)
               res.Flowgraph.points);
           (* Record for relevance growth (Update_Relevant_Branches). *)
           List.iter
             (fun s ->
               if not (Hashtbl.mem relevance_specs s) then
                 Hashtbl.replace relevance_specs s ())
             !pair_specs;
           iter_specs := !pair_specs @ !iter_specs)
         pairs;
       let canon = List.sort_uniq compare !iter_specs in
       final_specs := canon;
       match !prev_specs with
       | Some old when old = canon -> raise Exit
       | _ -> prev_specs := Some canon
     done
   with Exit -> ());
  let plan = { Mtcg.comms = Comm.number !final_specs } in
  ( plan,
    {
      iterations = !iterations;
      register_cuts = !reg_cuts;
      memory_cuts = !mem_cuts;
      fallbacks = !fallbacks;
    } )
