open Gmt_ir
module Analysis = Gmt_analysis
module Digraph = Gmt_graphalg.Digraph

type kind =
  | Reg of Reg.t
  | Mem of Analysis.Alias.kind * Instr.region
  | Ctrl
  | Ctrl_trans

type arc = { src : int; dst : int; kind : kind }

type t = {
  func : Func.t;
  arcs : arc list;
  nodes : int list;
  out_tbl : (int, arc list) Hashtbl.t;
  in_tbl : (int, arc list) Hashtbl.t;
  closure : int -> int list;
  mem_pruned : int;
}

let kind_to_string = function
  | Reg r -> "reg:" ^ Gmt_ir.Reg.to_string r
  | Mem (k, rg) ->
    Printf.sprintf "mem:%s:m%d" (Analysis.Alias.kind_to_string k) rg
  | Ctrl -> "ctrl"
  | Ctrl_trans -> "ctrl*"

(* Instruction-level "may execute before" relation: same block and earlier,
   or the second block is reachable from a successor of the first. *)
let build_reach cfg =
  let n = Cfg.n_blocks cfg in
  let g = Cfg.digraph cfg in
  let from_succ =
    Array.init n (fun b -> Digraph.reachable g (Digraph.succs g b))
  in
  fun (i_block, i_pos) (j_block, j_pos) ->
    (i_block = j_block && i_pos < j_pos) || from_succ.(i_block).(j_block)

let build ?prune_mem (f : Func.t) =
  Gmt_obs.Obs.span ~args:[ ("func", Gmt_obs.Obs.S f.name) ] "pdg.build"
  @@ fun () ->
  let cfg = f.cfg in
  let arcs = ref [] in
  let seen = Hashtbl.create 256 in
  let add src dst kind =
    if src <> dst then begin
      let key = (src, dst, kind) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        arcs := { src; dst; kind } :: !arcs
      end
    end
  in
  (* Register flow dependences. Entry definitions (negative ids) carry no
     obligation: every thread starts from the same initial register file. *)
  let reaching = Analysis.Reaching.compute f in
  List.iter
    (fun (d, u, r) ->
      if not (Analysis.Reaching.is_entry_def d) then add d u (Reg r))
    (Analysis.Reaching.du_chains reaching);
  (* Memory dependences: for each aliasing pair with at least one store,
     an arc i -> j whenever i may execute before j. Inside a loop both
     orders are realizable, yielding the paper's bidirectional arcs. *)
  let mem_instrs = ref [] in
  Cfg.iter_instrs cfg (fun l (i : Instr.t) ->
      if Instr.is_memory i then begin
        let _, pos = Cfg.position cfg i.id in
        mem_instrs := (i, (l, pos)) :: !mem_instrs
      end);
  let mem_instrs = List.rev !mem_instrs in
  let reach = build_reach cfg in
  (* Abstract-interpretation disambiguation: drop a memory arc when the
     value analysis proves the two accesses' address sets disjoint. *)
  let memdis =
    match prune_mem with
    | None -> None
    | Some mem_size ->
      Some
        ( Gmt_obs.Obs.span
            ~args:[ ("func", Gmt_obs.Obs.S f.name) ]
            "pdg.absint"
        @@ fun () ->
          let s = Analysis.Memdis.analyze ~mem_size f in
          if Gmt_obs.Obs.metrics_enabled () then begin
            let module M = Gmt_obs.Obs.Metrics in
            M.add "absint.nodes" (Analysis.Memdis.n_nodes s);
            M.add "absint.iterations" (Analysis.Memdis.iterations s)
          end;
          s )
  in
  let mem_pruned = ref 0 in
  List.iter
    (fun ((i : Instr.t), pi) ->
      List.iter
        (fun ((j : Instr.t), pj) ->
          if i.id <> j.id && reach pi pj then
            match Analysis.Alias.dep_kind ~earlier:i ~later:j with
            | Some k -> (
              match memdis with
              | Some s when Analysis.Memdis.disjoint s i.id j.id ->
                incr mem_pruned
              | _ ->
                add i.id j.id (Mem (k, Option.get (
                  match Instr.mem_read i with
                  | Some r -> Some r
                  | None -> Instr.mem_write i))))
            | None -> ())
        mem_instrs)
    mem_instrs;
  (* Direct control dependences: controlling branch -> every instruction
     of the controlled block. *)
  let cd = Analysis.Controldep.compute f in
  Cfg.iter_blocks cfg (fun b ->
      let controllers = Analysis.Controldep.deps cd b.label in
      List.iter
        (fun a ->
          let br = (Cfg.terminator cfg a).Instr.id in
          List.iter (fun (i : Instr.t) -> add br i.id Ctrl) b.body)
        controllers);
  (* Transitive control closure per block: branches reachable through
     chains of control dependences. *)
  let n = Cfg.n_blocks cfg in
  let cd_graph = Digraph.create n in
  for l = 0 to n - 1 do
    List.iter (fun a -> Digraph.add_edge cd_graph l a) (Analysis.Controldep.deps cd l)
  done;
  let closure_blocks =
    Array.init n (fun l ->
        let direct = Analysis.Controldep.deps cd l in
        let r = Digraph.reachable cd_graph direct in
        let out = ref [] in
        for a = n - 1 downto 0 do
          if r.(a) then out := a :: !out
        done;
        !out)
  in
  let closure_branches =
    Array.map
      (fun blocks -> List.map (fun a -> (Cfg.terminator cfg a).Instr.id) blocks)
      closure_blocks
  in
  Cfg.iter_blocks cfg (fun b ->
      let direct =
        List.map
          (fun a -> (Cfg.terminator cfg a).Instr.id)
          (Analysis.Controldep.deps cd b.label)
      in
      List.iter
        (fun br ->
          if not (List.mem br direct) then
            List.iter (fun (i : Instr.t) -> add br i.id Ctrl_trans) b.body)
        closure_branches.(b.label));
  (* Transitive control dependences derived from data arcs (the paper's
     Figure 3 example: D -> F because D controls E and E -> F): for a
     data dependence I -> J, every branch transitively controlling I also
     feeds J, since J's thread must reproduce the condition under which
     the communication from I's point fires. *)
  let id_block = Hashtbl.create 64 in
  Cfg.iter_instrs cfg (fun l (i : Instr.t) -> Hashtbl.replace id_block i.id l);
  let data_arcs =
    List.filter (fun a -> match a.kind with Reg _ | Mem _ -> true | _ -> false)
      !arcs
  in
  List.iter
    (fun a ->
      let src_block = Hashtbl.find id_block a.src in
      List.iter
        (fun br -> add br a.dst Ctrl_trans)
        closure_branches.(src_block);
      (* Direct controllers of the source, too: they guard the source's
         execution and hence the communication's condition. *)
      List.iter
        (fun cb -> add (Cfg.terminator cfg cb).Instr.id a.dst Ctrl_trans)
        (Analysis.Controldep.deps cd src_block))
    data_arcs;
  let arcs = List.rev !arcs in
  let out_tbl = Hashtbl.create 64 and in_tbl = Hashtbl.create 64 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun a ->
      push out_tbl a.src a;
      push in_tbl a.dst a)
    arcs;
  let nodes = ref [] in
  Cfg.iter_instrs cfg (fun _ i -> nodes := i.Instr.id :: !nodes);
  let id_to_block = Hashtbl.create 64 in
  Cfg.iter_instrs cfg (fun l (i : Instr.t) -> Hashtbl.replace id_to_block i.id l);
  let closure id =
    match Hashtbl.find_opt id_to_block id with
    | Some l -> closure_branches.(l)
    | None -> []
  in
  if Gmt_obs.Obs.metrics_enabled () then begin
    let module M = Gmt_obs.Obs.Metrics in
    M.add "pdg.nodes" (List.length !nodes);
    let count p = List.length (List.filter p arcs) in
    M.add "pdg.arcs.reg" (count (fun a -> match a.kind with Reg _ -> true | _ -> false));
    M.add "pdg.arcs.mem" (count (fun a -> match a.kind with Mem _ -> true | _ -> false));
    M.add "pdg.arcs.ctrl" (count (fun a -> a.kind = Ctrl));
    M.add "pdg.arcs.ctrl_trans" (count (fun a -> a.kind = Ctrl_trans));
    M.add "pdg.arcs.mem_pruned" !mem_pruned
  end;
  {
    func = f;
    arcs;
    nodes = List.rev !nodes;
    out_tbl;
    in_tbl;
    closure;
    mem_pruned = !mem_pruned;
  }

let mem_pruned t = t.mem_pruned

(* Rebuild with a subset of the arcs — fault-injection tests use this to
   simulate a compiler that wrongly pruned a true dependence. *)
let filter_arcs t ~f =
  let arcs = List.filter f t.arcs in
  let out_tbl = Hashtbl.create 64 and in_tbl = Hashtbl.create 64 in
  let push tbl k v =
    Hashtbl.replace tbl k
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun a ->
      push out_tbl a.src a;
      push in_tbl a.dst a)
    (List.rev arcs);
  { t with arcs; out_tbl; in_tbl }

let func t = t.func
let arcs t = t.arcs

let nodes t = t.nodes

let to_digraph t =
  let ids = Array.of_list t.nodes in
  let n = Array.length ids in
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let g = Digraph.create n in
  List.iter
    (fun a ->
      Digraph.add_edge g (Hashtbl.find index a.src) (Hashtbl.find index a.dst))
    t.arcs;
  let id_of_node v = ids.(v) in
  let node_of_id id = Hashtbl.find index id in
  (g, node_of_id, id_of_node)

let control_closure t id = t.closure id

let preds t id = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.in_tbl id))
let succs t id = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.out_tbl id))

let pp ppf t =
  Format.fprintf ppf "@[<v>PDG of %s (%d arcs):" t.func.Func.name
    (List.length t.arcs);
  List.iter
    (fun a ->
      Format.fprintf ppf "@,  i%d -> i%d [%s]" a.src a.dst (kind_to_string a.kind))
    t.arcs;
  Format.fprintf ppf "@]"
