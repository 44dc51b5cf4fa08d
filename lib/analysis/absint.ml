open Gmt_ir

module type DOMAIN = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val narrow : t -> t -> t
  val transfer : Instr.t -> t -> t
  val assume : Instr.t -> int -> t -> t
end

(* Visits a widening point joins before it widens, and the bound on the
   descending iteration. *)
let widen_delay = 2
let narrow_rounds = 2

module Make (D : DOMAIN) = struct
  type result = {
    f : Func.t;
    in_states : D.t array;
    iterations : int;
    points : (int, D.t * D.t) Hashtbl.t lazy_t;
  }

  (* Per-target-slot post-states of a block, refined through [assume];
     keyed by (block, slot) since a branch may name the same target
     twice. *)
  type edges = D.t array array

  let targets cfg b = Instr.targets (Cfg.terminator cfg b)

  let flow_block cfg b st =
    let term = Cfg.terminator cfg b in
    let out = List.fold_left (fun st i -> D.transfer i st) st (Cfg.body cfg b) in
    Array.of_list (List.mapi (fun slot _ -> D.assume term slot out) (targets cfg b))

  let compute_in cfg (edge_out : edges) ~entry_state b =
    let acc = if b = Cfg.entry cfg then entry_state else D.bottom in
    List.fold_left
      (fun acc p ->
        let slots = edge_out.(p) in
        List.fold_left
          (fun (acc, slot) t ->
            ((if t = b then D.join acc slots.(slot) else acc), slot + 1))
          (acc, 0) (targets cfg p)
        |> fst)
      acc (Cfg.preds cfg b)

  let solve ~entry f =
    let cfg = f.Func.cfg in
    let n = Cfg.n_blocks cfg in
    let entry_l = Cfg.entry cfg in
    (* Iterative DFS: reverse postorder for the worklist priority, and
       retreating-edge targets (any edge into a block still on the DFS
       stack) as widening points — a superset of natural-loop headers
       that also breaks irreducible cycles. *)
    let color = Array.make n 0 (* 0 white, 1 gray, 2 black *) in
    let post = ref [] in
    let widen_at = Array.make n false in
    let rec dfs b =
      color.(b) <- 1;
      List.iter
        (fun s ->
          if color.(s) = 0 then dfs s
          else if color.(s) = 1 then widen_at.(s) <- true)
        (Cfg.succs cfg b);
      color.(b) <- 2;
      post := b :: !post
    in
    dfs entry_l;
    let order = !post in
    let rpo_pos = Array.make n max_int in
    List.iteri (fun i b -> rpo_pos.(b) <- i) order;
    let block_of_pos = Array.make n entry_l in
    List.iteri (fun i b -> block_of_pos.(i) <- b) order;
    (* Union in the natural-loop headers, honoring the classical
       widening-at-loop-heads policy on reducible CFGs. *)
    let nest = Loopnest.compute f in
    List.iter (fun l -> widen_at.(l.Loopnest.header) <- true) (Loopnest.loops nest);
    let in_states = Array.make n D.bottom in
    let edge_out : edges =
      Array.init n (fun b -> Array.make (List.length (targets cfg b)) D.bottom)
    in
    let visits = Array.make n 0 in
    let iterations = ref 0 in
    let module WL = Set.Make (Int) in
    let wl = ref WL.empty in
    let enqueue b = if rpo_pos.(b) <> max_int then wl := WL.add rpo_pos.(b) !wl in
    let propagate b out =
      Array.iteri
        (fun slot st ->
          if not (D.equal edge_out.(b).(slot) st) then begin
            edge_out.(b).(slot) <- st;
            enqueue (List.nth (targets cfg b) slot)
          end)
        out
    in
    (* Ascending phase with delayed widening. *)
    enqueue entry_l;
    while not (WL.is_empty !wl) do
      let pos = WL.min_elt !wl in
      wl := WL.remove pos !wl;
      let b = block_of_pos.(pos) in
      incr iterations;
      visits.(b) <- visits.(b) + 1;
      let fresh = compute_in cfg edge_out ~entry_state:entry b in
      let st =
        if widen_at.(b) && visits.(b) > widen_delay then
          D.widen in_states.(b) fresh
        else D.join in_states.(b) fresh
      in
      if not (D.equal in_states.(b) st) || visits.(b) = 1 then begin
        in_states.(b) <- st;
        if not (D.is_bottom st) then propagate b (flow_block cfg b st)
      end
    done;
    (* Bounded narrowing: recompute in RPO without widening, folding the
       refinement in through [D.narrow]; stop early at stability. *)
    let round = ref 0 in
    let changed = ref true in
    while !changed && !round < narrow_rounds do
      incr round;
      changed := false;
      List.iter
        (fun b ->
          incr iterations;
          let fresh = compute_in cfg edge_out ~entry_state:entry b in
          let st = D.narrow in_states.(b) fresh in
          if not (D.equal in_states.(b) st) then begin
            changed := true;
            in_states.(b) <- st
          end;
          if not (D.is_bottom in_states.(b)) then
            propagate b (flow_block cfg b in_states.(b)))
        order
    done;
    let points =
      lazy
        (let tbl = Hashtbl.create (Cfg.n_instrs cfg) in
         Cfg.iter_blocks cfg (fun blk ->
             let st = ref in_states.(blk.Cfg.label) in
             List.iter
               (fun i ->
                 let before = !st in
                 let after = D.transfer i before in
                 Hashtbl.replace tbl i.Instr.id (before, after);
                 st := after)
               blk.Cfg.body);
         tbl)
    in
    { f; in_states; iterations = !iterations; points }

  let block_in r l = r.in_states.(l)
  let before r id = fst (Hashtbl.find (Lazy.force r.points) id)
  let after r id = snd (Hashtbl.find (Lazy.force r.points) id)
  let iterations r = r.iterations
  let n_nodes r = Array.length r.in_states
  let func r = r.f
end
