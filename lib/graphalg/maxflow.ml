(* Edmonds–Karp: BFS augmenting paths on an adjacency-list residual graph.
   Arcs are stored in a flat array; arc i and its reverse arc (i lxor 1)
   are adjacent, the classic pairing trick. *)

let infinity = max_int / 1024

type t = {
  n : int;
  mutable heads : int array;   (* arc id -> head node *)
  mutable caps : int array;    (* arc id -> residual capacity *)
  mutable orig : int array;    (* arc id -> original capacity (forward arcs) *)
  adj : int list array;        (* node -> incident arc ids *)
  mutable n_arcs : int;
  mutable tails : int array;   (* arc id -> tail node *)
}

let create n =
  {
    n;
    heads = Array.make 16 0;
    caps = Array.make 16 0;
    orig = Array.make 16 0;
    tails = Array.make 16 0;
    adj = Array.make (max n 1) [];
    n_arcs = 0;
  }

let n_nodes t = t.n

let ensure t k =
  let len = Array.length t.heads in
  if k > len then begin
    let len' = max (2 * len) k in
    let grow a def =
      let a' = Array.make len' def in
      Array.blit a 0 a' 0 len;
      a'
    in
    t.heads <- grow t.heads 0;
    t.caps <- grow t.caps 0;
    t.orig <- grow t.orig 0;
    t.tails <- grow t.tails 0
  end

let sat_add a b = if a >= infinity - b then infinity else a + b

let add_arc t u v cap =
  if cap < 0 then invalid_arg "Maxflow.add_arc: negative capacity";
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Maxflow.add_arc: node out of range";
  (* Collapse duplicate arcs by accumulating capacity. *)
  let existing =
    List.find_opt
      (fun id -> id land 1 = 0 && t.heads.(id) = v)
      t.adj.(u)
  in
  match existing with
  | Some id ->
    t.caps.(id) <- sat_add t.caps.(id) cap;
    t.orig.(id) <- sat_add t.orig.(id) cap;
    id
  | None ->
    let id = t.n_arcs in
    ensure t (id + 2);
    t.heads.(id) <- v;
    t.tails.(id) <- u;
    t.caps.(id) <- cap;
    t.orig.(id) <- cap;
    t.heads.(id + 1) <- u;
    t.tails.(id + 1) <- v;
    t.caps.(id + 1) <- 0;
    t.orig.(id + 1) <- 0;
    t.adj.(u) <- id :: t.adj.(u);
    t.adj.(v) <- (id + 1) :: t.adj.(v);
    t.n_arcs <- id + 2;
    id

let arc_info t id =
  if id < 0 || id >= t.n_arcs then invalid_arg "Maxflow.arc_info";
  (t.tails.(id), t.heads.(id), t.orig.(id))

(* One BFS from src in the residual graph; returns the predecessor arc per
   node, or [||] packaged as None when sink is unreachable. *)
let bfs t ~src ~sink =
  let pred_arc = Array.make t.n (-1) in
  let seen = Array.make t.n false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.push src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun id ->
        let v = t.heads.(id) in
        if (not seen.(v)) && t.caps.(id) > 0 then begin
          seen.(v) <- true;
          pred_arc.(v) <- id;
          if v = sink then found := true else Queue.push v q
        end)
      t.adj.(u)
  done;
  if !found then Some pred_arc else None

let max_flow t ~src ~sink =
  if src = sink then invalid_arg "Maxflow.max_flow: src = sink";
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    match bfs t ~src ~sink with
    | None -> continue := false
    | Some pred_arc ->
      (* Find bottleneck. *)
      let bottleneck = ref infinity in
      let v = ref sink in
      while !v <> src do
        let id = pred_arc.(!v) in
        if t.caps.(id) < !bottleneck then bottleneck := t.caps.(id);
        v := t.tails.(id)
      done;
      (* Apply. *)
      let v = ref sink in
      while !v <> src do
        let id = pred_arc.(!v) in
        t.caps.(id) <- t.caps.(id) - !bottleneck;
        t.caps.(id lxor 1) <- t.caps.(id lxor 1) + !bottleneck;
        v := t.tails.(id)
      done;
      total := sat_add !total !bottleneck;
      if !total >= infinity then continue := false
  done;
  !total

type cut = {
  value : int;
  src_side : bool array;
  arcs : (int * int * int) list;
}

let min_cut t ~src ~sink =
  let value = max_flow t ~src ~sink in
  (* Residual reachability from src. *)
  let seen = Array.make t.n false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun id ->
        let v = t.heads.(id) in
        if (not seen.(v)) && t.caps.(id) > 0 then begin
          seen.(v) <- true;
          Queue.push v q
        end)
      t.adj.(u)
  done;
  (* Every forward arc crossing from the source side to the sink side is
     part of the cut — including zero-capacity arcs: they cost nothing but
     a client placing actions on cut arcs (COCO does) must still cover
     them, or unprofiled paths would escape the cut. *)
  let arcs = ref [] in
  for id = 0 to t.n_arcs - 1 do
    if id land 1 = 0 then begin
      let u = t.tails.(id) and v = t.heads.(id) in
      if seen.(u) && not seen.(v) then arcs := (u, v, id) :: !arcs
    end
  done;
  { value; src_side = seen; arcs = List.rev !arcs }
