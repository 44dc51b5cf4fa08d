(* GREMIO (Ottoni & August, MICRO 2007): hierarchical global scheduling
   over the program's control structure.

   The scheduler works on a sequence of *units* in program order. A unit
   is an entire loop treated atomically, or a strongly-connected component
   of the PDG's register+control arcs restricted to the instructions
   directly at the current nesting level. Register/control recurrences are
   never split (communication inside such a cycle would round-trip every
   iteration on in-order cores), but *memory* cycles may cross threads —
   unlike DSWP, GREMIO permits cyclic inter-thread dependences, which is
   why GREMIO-parallelized code exhibits the inter-thread memory
   synchronizations the paper's Section 4 discusses.

   Thread assignment cuts the program-ordered unit sequence into
   contiguous per-thread chunks, chosen to minimize an estimated makespan
   that counts computation (profile-weighted latency) and the
   communication instructions each crossing (producer, consumer-thread)
   pair costs under MTCG. If the bottleneck thread is dominated by an
   atomic loop, the loop is tentatively expanded one level and the cut
   recomputed; the expansion is kept only when the estimated makespan does
   not degrade — this is how GREMIO decides between keeping a loop whole
   (cheap communication, pipelined across iterations) and opening its body
   (balance at the price of per-iteration communication). *)

open Gmt_ir
module Pdg = Gmt_pdg.Pdg
module Profile = Gmt_analysis.Profile
module Loopnest = Gmt_analysis.Loopnest
module Scc = Gmt_graphalg.Scc
module Digraph = Gmt_graphalg.Digraph

type unit_ = {
  uid : int;
  instrs : int list;
  loop : int option;
  dur : int;
  order : int;
}

let partition ?(n_threads = 2) pdg profile =
  let f = Pdg.func pdg in
  let cfg = f.Func.cfg in
  let nest = Loopnest.compute f in
  let prog_order = Hashtbl.create 64 in
  let cost_of = Hashtbl.create 64 in
  let weight_of = Hashtbl.create 64 in
  let next = ref 0 in
  Cfg.iter_instrs cfg (fun l (i : Instr.t) ->
      Hashtbl.replace prog_order i.id !next;
      incr next;
      Hashtbl.replace cost_of i.id (Estimate.dyn_cost profile cfg i);
      Hashtbl.replace weight_of i.id (max 1 (Profile.block profile l)));
  let schedulable (i : Instr.t) = not (Instr.is_structural i) in
  (* Recurrence components: SCCs over register and direct-control arcs
     (memory arcs excluded so memory cycles remain splittable). *)
  let comp_of =
    let ids = ref [] in
    Cfg.iter_instrs cfg (fun _ (i : Instr.t) -> ids := i.id :: !ids);
    let ids = Array.of_list (List.rev !ids) in
    let index = Hashtbl.create 64 in
    Array.iteri (fun n id -> Hashtbl.replace index id n) ids;
    let g = Digraph.create (Array.length ids) in
    List.iter
      (fun (a : Pdg.arc) ->
        match a.kind with
        | Pdg.Reg _ | Pdg.Ctrl ->
          Digraph.add_edge g (Hashtbl.find index a.src) (Hashtbl.find index a.dst)
        | Pdg.Mem _ | Pdg.Ctrl_trans -> ())
      (Pdg.arcs pdg);
    let comp, n_comps =
      Gmt_obs.Obs.span "gremio.sccs" (fun () -> Scc.components g)
    in
    if Gmt_obs.Obs.metrics_enabled () then
      Gmt_obs.Obs.Metrics.add "gremio.recurrence_sccs" n_comps;
    fun id -> comp.(Hashtbl.find index id)
  in
  let block_loop l =
    match Loopnest.innermost nest l with
    | Some lp -> Some lp.Loopnest.id
    | None -> None
  in
  let instrs_at level =
    let acc = ref [] in
    Cfg.iter_instrs cfg (fun l (i : Instr.t) ->
        if schedulable i && block_loop l = level then acc := i.id :: !acc);
    List.rev !acc
  in
  let loop_members lp_id =
    let lp = Loopnest.loop nest lp_id in
    let acc = ref [] in
    List.iter
      (fun bl ->
        List.iter
          (fun (i : Instr.t) -> if schedulable i then acc := i.id :: !acc)
          (Cfg.body cfg bl))
      lp.Loopnest.body;
    List.rev !acc
  in
  let uid = ref 0 in
  let mk_unit ?loop instrs =
    incr uid;
    let dur =
      List.fold_left (fun a id -> a + Hashtbl.find cost_of id) 0 instrs
    in
    let order =
      List.fold_left
        (fun a id -> min a (Hashtbl.find prog_order id))
        max_int instrs
    in
    { uid = !uid; instrs; loop; dur; order }
  in
  let units_of_level level children =
    let by_comp = Hashtbl.create 16 in
    List.iter
      (fun id ->
        let c = comp_of id in
        Hashtbl.replace by_comp c
          (id :: Option.value ~default:[] (Hashtbl.find_opt by_comp c)))
      (instrs_at level);
    let groups =
      Hashtbl.fold (fun _ ids acc -> mk_unit (List.rev ids) :: acc) by_comp []
    in
    let loops =
      List.filter_map
        (fun lp_id ->
          match loop_members lp_id with
          | [] -> None
          | ms -> Some (mk_unit ~loop:lp_id ms))
        children
    in
    List.sort (fun a b -> compare a.order b.order) (groups @ loops)
  in
  let top_children =
    List.map (fun lp -> lp.Loopnest.id) (Loopnest.roots nest)
  in
  (* Dependence arcs used for the communication estimate. *)
  let arcs =
    List.filter_map
      (fun (a : Pdg.arc) ->
        match a.kind with
        | Pdg.Reg _ | Pdg.Mem _ | Pdg.Ctrl ->
          if Hashtbl.mem prog_order a.src && Hashtbl.mem prog_order a.dst
          then Some (a.src, a.dst)
          else None
        | Pdg.Ctrl_trans -> None)
      (Pdg.arcs pdg)
    |> List.sort_uniq compare
  in
  (* Estimated makespan of a full assignment: per-thread computation plus
     one produce on the source thread and one consume on the target thread
     per distinct (producer, consumer-thread) pair, MTCG's deduplication
     unit. *)
  let eval units thread_of_unit =
    let thread_of_instr = Hashtbl.create 256 in
    List.iter
      (fun u ->
        let t : int = Hashtbl.find thread_of_unit u.uid in
        List.iter (fun id -> Hashtbl.replace thread_of_instr id t) u.instrs)
      units;
    let load = Array.make n_threads 0 in
    List.iter
      (fun u ->
        let t = Hashtbl.find thread_of_unit u.uid in
        load.(t) <- load.(t) + u.dur)
      units;
    let paid = Hashtbl.create 64 in
    List.iter
      (fun (s, d) ->
        match
          (Hashtbl.find_opt thread_of_instr s, Hashtbl.find_opt thread_of_instr d)
        with
        | Some ts, Some td when ts <> td && not (Hashtbl.mem paid (s, td)) ->
          Hashtbl.add paid (s, td) ();
          let w = Hashtbl.find weight_of s in
          load.(ts) <- load.(ts) + w;
          load.(td) <- load.(td) + w
        | _ -> ())
      arcs;
    Array.fold_left max 0 load
  in
  (* Cut the program-ordered unit sequence into contiguous chunks. For two
     threads every cut point is evaluated exactly; for more threads a
     bottleneck DP over durations picks the cut and [eval] scores it. *)
  let split units =
    let arr = Array.of_list units in
    let n = Array.length arr in
    if n_threads = 2 then begin
      let best = ref None in
      for cut = 0 to n do
        let assign = Hashtbl.create 32 in
        Array.iteri
          (fun i u -> Hashtbl.replace assign u.uid (if i < cut then 0 else 1))
          arr;
        let m = eval units assign in
        match !best with
        | Some (bm, _) when bm <= m -> ()
        | _ -> best := Some (m, assign)
      done;
      match !best with
      | Some (m, assign) -> (assign, m)
      | None -> (Hashtbl.create 1, 0)
    end
    else begin
      (* DSWP's bottleneck DP over durations (communication ignored for
         the cut choice, still reflected by [eval]). *)
      let chunk =
        Dswp.bottleneck_split (Array.map (fun u -> u.dur) arr) n_threads
      in
      let assign = Hashtbl.create 32 in
      Array.iteri (fun i u -> Hashtbl.replace assign u.uid chunk.(i)) arr;
      (assign, eval units assign)
    end
  in
  let no_expand = Hashtbl.create 8 in
  let rec refine units =
    let assign, makespan = split units in
    let load = Array.make n_threads 0 in
    List.iter
      (fun u ->
        let t = Hashtbl.find assign u.uid in
        load.(t) <- load.(t) + u.dur)
      units;
    let bottleneck =
      let bi = ref 0 in
      Array.iteri (fun i l -> if l > load.(!bi) then bi := i) load;
      !bi
    in
    let candidate =
      List.filter
        (fun u ->
          u.loop <> None
          && (not (Hashtbl.mem no_expand (Option.get u.loop)))
          && Hashtbl.find assign u.uid = bottleneck
          && u.dur * 2 > load.(bottleneck))
        units
      |> List.sort (fun a b -> compare b.dur a.dur)
      |> function
      | [] -> None
      | u :: _ -> Some u
    in
    match candidate with
    | None -> (units, assign)
    | Some u ->
      let lp_id = Option.get u.loop in
      let lp = Loopnest.loop nest lp_id in
      let sub = units_of_level (Some lp_id) lp.Loopnest.children in
      let expanded =
        List.concat_map (fun v -> if v.uid = u.uid then sub else [ v ]) units
      in
      let _, makespan' = split expanded in
      if makespan' <= makespan then refine expanded
      else begin
        Hashtbl.replace no_expand lp_id ();
        refine units
      end
  in
  let units, assign = refine (units_of_level None top_children) in
  let pairs = ref [] in
  List.iter
    (fun u ->
      let t = Hashtbl.find assign u.uid in
      List.iter (fun id -> pairs := (id, t) :: !pairs) u.instrs)
    units;
  Partition.make ~n_threads !pairs
