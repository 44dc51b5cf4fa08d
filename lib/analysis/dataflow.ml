open Gmt_ir

type direction = Forward | Backward

module type PROBLEM = sig
  type fact

  val direction : direction
  val equal : fact -> fact -> bool
  val meet : fact -> fact -> fact
  val boundary : fact
  val start : fact
  val transfer : Instr.t -> fact -> fact
end

module Make (P : PROBLEM) = struct
  type result = {
    cfg : Cfg.t;
    inf : P.fact array;
    outf : P.fact array;
    (* Per-block point facts, filled on the block's first query:
       [points.(l).(i)] holds before the block's [i]th instruction and
       [points.(l).(i + 1)] after it. A query then costs one lookup
       instead of a walk over the block. *)
    points : P.fact array option array;
  }

  (* Apply the block transfer: forward folds the body left-to-right,
     backward right-to-left. *)
  let block_transfer body fact =
    match P.direction with
    | Forward -> List.fold_left (fun f i -> P.transfer i f) fact body
    | Backward -> List.fold_right P.transfer body fact

  (* Postorder of the CFG's block digraph (unreachable blocks appended so
     every block still gets seeded). Seeding the worklist in reverse
     postorder for forward problems — and postorder for backward ones —
     propagates facts along long acyclic chains in one pass instead of
     one worklist round per block. *)
  let postorder cfg =
    let n = Cfg.n_blocks cfg in
    let seen = Array.make n false in
    let order = ref [] in
    let rec dfs b =
      if not seen.(b) then begin
        seen.(b) <- true;
        List.iter dfs (Cfg.succs cfg b);
        order := b :: !order
      end
    in
    dfs (Cfg.entry cfg);
    let unreachable = ref [] in
    for b = n - 1 downto 0 do
      if not seen.(b) then unreachable := b :: !unreachable
    done;
    (* [order] currently holds reverse postorder; flip for postorder. *)
    (List.rev !order, !unreachable)

  let solve cfg =
    let n = Cfg.n_blocks cfg in
    let inf = Array.make n P.start in
    let outf = Array.make n P.start in
    let is_exit = Array.make n false in
    List.iter (fun b -> is_exit.(b) <- true) (Cfg.exit_blocks cfg);
    let worklist = Queue.create () in
    let in_q = Array.make n false in
    let push b =
      if not in_q.(b) then begin
        in_q.(b) <- true;
        Queue.push b worklist
      end
    in
    let post, unreachable = postorder cfg in
    (match P.direction with
    | Forward -> List.iter push (List.rev post)
    | Backward -> List.iter push post);
    List.iter push unreachable;
    while not (Queue.is_empty worklist) do
      let b = Queue.pop worklist in
      in_q.(b) <- false;
      let body = Cfg.body cfg b in
      match P.direction with
      | Forward ->
        let from_preds =
          List.fold_left
            (fun acc p -> P.meet acc outf.(p))
            (if b = Cfg.entry cfg then P.boundary else P.start)
            (Cfg.preds cfg b)
        in
        inf.(b) <- from_preds;
        let out = block_transfer body from_preds in
        if not (P.equal out outf.(b)) then begin
          outf.(b) <- out;
          List.iter push (Cfg.succs cfg b)
        end
      | Backward ->
        let from_succs =
          List.fold_left
            (fun acc s -> P.meet acc inf.(s))
            (if is_exit.(b) then P.boundary else P.start)
            (Cfg.succs cfg b)
        in
        outf.(b) <- from_succs;
        let newin = block_transfer body from_succs in
        if not (P.equal newin inf.(b)) then begin
          inf.(b) <- newin;
          List.iter push (Cfg.preds cfg b)
        end
    done;
    { cfg; inf; outf; points = Array.make n None }

  let block_in r l = r.inf.(l)
  let block_out r l = r.outf.(l)

  (* The same transfers, in the same order, as the solver's pass over
     the block: forward from its in-fact, backward from its out-fact. *)
  let points r l =
    match r.points.(l) with
    | Some a -> a
    | None ->
      let body = Array.of_list (Cfg.body r.cfg l) in
      let m = Array.length body in
      let a =
        match P.direction with
        | Forward ->
          let a = Array.make (m + 1) r.inf.(l) in
          for i = 0 to m - 1 do
            a.(i + 1) <- P.transfer body.(i) a.(i)
          done;
          a
        | Backward ->
          let a = Array.make (m + 1) r.outf.(l) in
          for i = m - 1 downto 0 do
            a.(i) <- P.transfer body.(i) a.(i + 1)
          done;
          a
      in
      r.points.(l) <- Some a;
      a

  let before r id =
    let l, idx = Cfg.position r.cfg id in
    (points r l).(idx)

  let after r id =
    let l, idx = Cfg.position r.cfg id in
    (points r l).(idx + 1)
end
