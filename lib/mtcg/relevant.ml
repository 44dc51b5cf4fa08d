open Gmt_ir
module Controldep = Gmt_analysis.Controldep
module Partition = Gmt_sched.Partition
module Iset = Set.Make (Int)

type t = {
  branch_sets : Iset.t array;  (* per thread: relevant branch ids *)
  block_sets : Iset.t array;   (* per thread: relevant block labels *)
}

(* Branch ids directly controlling block [l]. *)
let controllers cd cfg l =
  List.map (fun a -> (Cfg.terminator cfg a).Instr.id) (Controldep.deps cd l)

let compute (f : Func.t) cd partition comms =
  let cfg = f.cfg in
  let n_threads = Partition.n_threads partition in
  let branch_sets = Array.make n_threads Iset.empty in
  let block_of_branch = Hashtbl.create 16 in
  Cfg.iter_blocks cfg (fun b ->
      let term = Cfg.terminator cfg b.label in
      if Instr.is_branch term then Hashtbl.replace block_of_branch term.id b.label);
  let add th id =
    if not (Iset.mem id branch_sets.(th)) then begin
      branch_sets.(th) <- Iset.add id branch_sets.(th);
      true
    end
    else false
  in
  (* Seeds: branches assigned to the thread, and branches directly
     controlling any instruction assigned to the thread. *)
  Cfg.iter_instrs cfg (fun l (i : Instr.t) ->
      match Partition.thread_of_opt partition i.id with
      | None -> ()
      | Some th ->
        if Instr.is_branch i then ignore (add th i.id);
        List.iter (fun b -> ignore (add th b)) (controllers cd cfg l));
  (* Branches controlling communication points (both endpoints' threads
     need the point in their CFG). *)
  let point_controllers p =
    match p with
    | Comm.On_edge (a, b) ->
      ignore b;
      let term = Cfg.terminator cfg a in
      let own = if Instr.is_branch term then [ term.id ] else [] in
      own @ controllers cd cfg a
    | _ -> controllers cd cfg (Comm.block_of_point cfg p)
  in
  List.iter
    (fun (c : Comm.t) ->
      List.iter
        (fun b ->
          ignore (add c.src b);
          ignore (add c.dst b))
        (point_controllers c.point))
    comms;
  (* Closure: a branch controlling a relevant branch is relevant. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for th = 0 to n_threads - 1 do
      Iset.iter
        (fun br ->
          match Hashtbl.find_opt block_of_branch br with
          | None -> ()
          | Some l ->
            List.iter
              (fun b -> if add th b then changed := true)
              (controllers cd cfg l))
        branch_sets.(th)
    done
  done;
  (* Relevant blocks: blocks holding the thread's instructions, its
     communication points, and its relevant branches. *)
  let block_sets = Array.make n_threads Iset.empty in
  let add_block th l = block_sets.(th) <- Iset.add l block_sets.(th) in
  Cfg.iter_instrs cfg (fun l (i : Instr.t) ->
      match Partition.thread_of_opt partition i.id with
      | Some th -> add_block th l
      | None -> ());
  List.iter
    (fun (c : Comm.t) ->
      let l = Comm.block_of_point cfg c.point in
      add_block c.src l;
      add_block c.dst l)
    comms;
  for th = 0 to n_threads - 1 do
    Iset.iter
      (fun br ->
        match Hashtbl.find_opt block_of_branch br with
        | Some l -> add_block th l
        | None -> ())
      branch_sets.(th)
  done;
  { branch_sets; block_sets }

let branches t th = t.branch_sets.(th)
let blocks t th = t.block_sets.(th)

let is_relevant_branch t ~thread ~branch_id =
  Iset.mem branch_id t.branch_sets.(thread)

let point_relevant t ~thread cfg cd p =
  let ctl =
    match p with
    | Comm.On_edge (a, _) ->
      let term = Cfg.terminator cfg a in
      let own = if Instr.is_branch term then [ term.Instr.id ] else [] in
      own
      @ List.map
          (fun x -> (Cfg.terminator cfg x).Instr.id)
          (Controldep.deps cd a)
    | _ ->
      let l = Comm.block_of_point cfg p in
      List.map
        (fun x -> (Cfg.terminator cfg x).Instr.id)
        (Controldep.deps cd l)
  in
  List.for_all (fun b -> Iset.mem b t.branch_sets.(thread)) ctl
