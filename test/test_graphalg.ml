(* Graph algorithm substrate: digraph, SCC, topological sort, dominators,
   max-flow/min-cut and the multi-commodity heuristic. *)

module Digraph = Gmt_graphalg.Digraph
module Scc = Gmt_graphalg.Scc
module Topo = Gmt_graphalg.Topo
module Dom = Gmt_graphalg.Dom
module Maxflow = Gmt_graphalg.Maxflow
module Multicut = Gmt_graphalg.Multicut

let graph edges n =
  let g = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

(* ------------------------- digraph ------------------------- *)

let test_digraph_basic () =
  let g = graph [ (0, 1); (1, 2); (0, 2) ] 3 in
  Alcotest.(check int) "nodes" 3 (Digraph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Digraph.n_edges g);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "preds 2" [ 1; 0 ] (Digraph.preds g 2);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "not mem" false (Digraph.mem_edge g 2 0)

let test_digraph_dedup () =
  let g = graph [ (0, 1); (0, 1); (0, 1) ] 2 in
  Alcotest.(check int) "parallel edges collapse" 1 (Digraph.n_edges g)

let test_digraph_transpose () =
  let g = graph [ (0, 1); (1, 2) ] 3 in
  let t = Digraph.transpose g in
  Alcotest.(check (list int)) "transposed succs" [ 1 ] (Digraph.succs t 2);
  Alcotest.(check (list int)) "transposed succs 1" [ 0 ] (Digraph.succs t 1)

let test_digraph_reachable () =
  let g = graph [ (0, 1); (1, 2); (3, 4) ] 5 in
  let r = Digraph.reachable g [ 0 ] in
  Alcotest.(check (list bool))
    "reach from 0"
    [ true; true; true; false; false ]
    (Array.to_list r)

let test_digraph_bounds () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "oob" (Invalid_argument "Digraph: node out of range")
    (fun () -> Digraph.add_edge g 0 5)

(* ------------------------- scc ------------------------- *)

let test_scc_simple_cycle () =
  let g = graph [ (0, 1); (1, 2); (2, 0); (2, 3) ] 4 in
  let comp, n = Scc.components g in
  Alcotest.(check int) "two components" 2 n;
  Alcotest.(check bool) "cycle together" true
    (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  Alcotest.(check bool) "3 separate" true (comp.(3) <> comp.(0))

let test_scc_topological_numbering () =
  (* Edge between distinct components goes from higher to lower index. *)
  let g = graph [ (0, 1); (1, 2); (2, 1); (2, 3) ] 4 in
  let comp, _ = Scc.components g in
  Alcotest.(check bool) "0 before {1,2}" true (comp.(0) > comp.(1));
  Alcotest.(check bool) "{1,2} before 3" true (comp.(1) > comp.(3))

let test_scc_condense_acyclic () =
  let g = graph [ (0, 1); (1, 2); (2, 0); (3, 0); (2, 4) ] 5 in
  let dag, comp = Scc.condense g in
  Alcotest.(check bool) "condensation acyclic" true (Topo.is_acyclic dag);
  Alcotest.(check int) "3 comps" 3 (Digraph.n_nodes dag);
  let members = Scc.members comp 3 in
  let sizes =
    List.sort compare (Array.to_list (Array.map List.length members))
  in
  Alcotest.(check (list int)) "sizes" [ 1; 1; 3 ] sizes

let test_scc_self_loop () =
  let g = graph [ (0, 0); (0, 1) ] 2 in
  let _, n = Scc.components g in
  Alcotest.(check int) "self loop is its own scc" 2 n

(* ------------------------- topo ------------------------- *)

let test_topo_order () =
  let g = graph [ (2, 0); (0, 1); (2, 1) ] 3 in
  let order = Topo.sort g in
  let pos = Array.make 3 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  Digraph.iter_edges g (fun u v ->
      Alcotest.(check bool) "edge respects order" true (pos.(u) < pos.(v)))

let test_topo_cycle () =
  let g = graph [ (0, 1); (1, 0) ] 2 in
  Alcotest.(check bool) "cyclic" false (Topo.is_acyclic g);
  Alcotest.(check bool) "sort_opt none" true (Topo.sort_opt g = None)

(* ------------------------- dom ------------------------- *)

(* Diamond: 0 -> 1,2 -> 3 *)
let test_dom_diamond () =
  let g = graph [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
  let d = Dom.compute g 0 in
  Alcotest.(check (option int)) "idom 1" (Some 0) (Dom.idom d 1);
  Alcotest.(check (option int)) "idom 2" (Some 0) (Dom.idom d 2);
  Alcotest.(check (option int)) "idom 3" (Some 0) (Dom.idom d 3);
  Alcotest.(check bool) "0 dom 3" true (Dom.dominates d 0 3);
  Alcotest.(check bool) "1 not dom 3" false (Dom.dominates d 1 3);
  Alcotest.(check bool) "reflexive" true (Dom.dominates d 3 3)

let test_dom_loop () =
  (* 0 -> 1 -> 2 -> 1, 2 -> 3 *)
  let g = graph [ (0, 1); (1, 2); (2, 1); (2, 3) ] 4 in
  let d = Dom.compute g 0 in
  Alcotest.(check (option int)) "idom 2" (Some 1) (Dom.idom d 2);
  Alcotest.(check (option int)) "idom 3" (Some 2) (Dom.idom d 3);
  Alcotest.(check (list int)) "dominators of 3" [ 0; 1; 2; 3 ]
    (List.sort compare (Dom.dominators d 3))

let test_dom_unreachable () =
  let g = graph [ (0, 1); (2, 3) ] 4 in
  let d = Dom.compute g 0 in
  Alcotest.(check bool) "2 unreachable" false (Dom.is_reachable d 2);
  Alcotest.(check bool) "no false dominance" false (Dom.dominates d 0 2)

let test_dom_children () =
  let g = graph [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
  let d = Dom.compute g 0 in
  Alcotest.(check (list int)) "children of 0" [ 1; 2; 3 ]
    (List.sort compare (Dom.children d 0))

(* ------------------------- maxflow ------------------------- *)

let test_maxflow_simple () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_arc net 0 1 3);
  ignore (Maxflow.add_arc net 0 2 2);
  ignore (Maxflow.add_arc net 1 3 2);
  ignore (Maxflow.add_arc net 2 3 3);
  Alcotest.(check int) "max flow" 4 (Maxflow.max_flow net ~src:0 ~sink:3)

let test_maxflow_bottleneck () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_arc net 0 1 10);
  ignore (Maxflow.add_arc net 1 2 1);
  Alcotest.(check int) "bottleneck" 1 (Maxflow.max_flow net ~src:0 ~sink:2)

let test_maxflow_disconnected () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_arc net 0 1 5);
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow net ~src:0 ~sink:2)

let test_maxflow_infinite () =
  let net = Maxflow.create 2 in
  ignore (Maxflow.add_arc net 0 1 Maxflow.infinity);
  Alcotest.(check bool) "infinite" true
    (Maxflow.max_flow net ~src:0 ~sink:1 >= Maxflow.infinity)

let test_maxflow_duplicate_accumulates () =
  let net = Maxflow.create 2 in
  let a = Maxflow.add_arc net 0 1 2 in
  let b = Maxflow.add_arc net 0 1 3 in
  Alcotest.(check int) "same id" a b;
  Alcotest.(check int) "sum" 5 (Maxflow.max_flow net ~src:0 ~sink:1)

let test_mincut_arcs () =
  (* 0 -> 1 (1), 0 -> 2 (1), 1 -> 3 (inf), 2 -> 3 (inf): cut at sources *)
  let net = Maxflow.create 4 in
  let a01 = Maxflow.add_arc net 0 1 1 in
  let a02 = Maxflow.add_arc net 0 2 1 in
  ignore (Maxflow.add_arc net 1 3 Maxflow.infinity);
  ignore (Maxflow.add_arc net 2 3 Maxflow.infinity);
  let cut = Maxflow.min_cut net ~src:0 ~sink:3 in
  Alcotest.(check int) "value" 2 cut.Maxflow.value;
  let ids = List.sort compare (List.map (fun (_, _, id) -> id) cut.Maxflow.arcs) in
  Alcotest.(check (list int)) "cut arcs" (List.sort compare [ a01; a02 ]) ids

let test_mincut_includes_zero_cap () =
  (* A zero-capacity arc crossing the cut must be reported. *)
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_arc net 0 1 5);
  ignore (Maxflow.add_arc net 1 3 1);
  ignore (Maxflow.add_arc net 1 2 0);
  ignore (Maxflow.add_arc net 2 3 4);
  let cut = Maxflow.min_cut net ~src:0 ~sink:3 in
  Alcotest.(check int) "value" 1 cut.Maxflow.value;
  (* src side = {0,1,2} (2 reachable? no cap)... src side is {0,1}; the
     cut must include both (1,3) cap 1 and (1,2) cap 0. *)
  Alcotest.(check int) "two crossing arcs" 2 (List.length cut.Maxflow.arcs)

(* ------------------------- multicut ------------------------- *)

let test_multicut_two_pairs_share () =
  (* chain 0 -> 1 -> 2 -> 3 with pairs (0,3) and (1,3): one shared arc
     (2,3) disconnects both if it is the cheapest. *)
  let arcs =
    [
      { Multicut.u = 0; v = 1; cap = 5; tag = 0 };
      { Multicut.u = 1; v = 2; cap = 5; tag = 1 };
      { Multicut.u = 2; v = 3; cap = 1; tag = 2 };
    ]
  in
  let r = Multicut.solve ~n:4 ~arcs ~pairs:[ (0, 3); (1, 3) ] in
  Alcotest.(check (list int)) "single shared cut" [ 2 ] r.Multicut.cut_tags;
  Alcotest.(check int) "cost" 1 r.Multicut.total_cost

let test_multicut_disjoint_pairs () =
  (* Two disjoint chains: both must be cut. *)
  let arcs =
    [
      { Multicut.u = 0; v = 1; cap = 2; tag = 0 };
      { Multicut.u = 2; v = 3; cap = 3; tag = 1 };
    ]
  in
  let r = Multicut.solve ~n:4 ~arcs ~pairs:[ (0, 1); (2, 3) ] in
  Alcotest.(check (list int)) "both" [ 0; 1 ]
    (List.sort compare r.Multicut.cut_tags);
  Alcotest.(check int) "cost" 5 r.Multicut.total_cost

let test_multicut_validates () =
  (* After removing cut arcs, no pair's source reaches its sink. *)
  let arcs =
    [
      { Multicut.u = 0; v = 1; cap = 1; tag = 0 };
      { Multicut.u = 0; v = 2; cap = 1; tag = 1 };
      { Multicut.u = 1; v = 3; cap = 1; tag = 2 };
      { Multicut.u = 2; v = 3; cap = 1; tag = 3 };
      { Multicut.u = 1; v = 4; cap = 1; tag = 4 };
    ]
  in
  let pairs = [ (0, 3); (0, 4) ] in
  let r = Multicut.solve ~n:5 ~arcs ~pairs in
  let remaining =
    List.filter (fun a -> not (List.mem a.Multicut.tag r.Multicut.cut_tags)) arcs
  in
  let g = Digraph.create 5 in
  List.iter (fun a -> Digraph.add_edge g a.Multicut.u a.Multicut.v) remaining;
  List.iter
    (fun (s, t) ->
      let reach = Digraph.reachable g [ s ] in
      Alcotest.(check bool) "disconnected" false reach.(t))
    pairs

(* QCheck property: min_cut's reported arcs really disconnect src from
   sink, and their capacity sum equals the flow value. *)
let prop_mincut_disconnects =
  QCheck.Test.make ~count:200 ~name:"min-cut disconnects and matches flow"
    QCheck.(
      pair (int_range 2 8)
        (small_list (triple (int_range 0 7) (int_range 0 7) (int_range 0 9))))
    (fun (n, raw_arcs) ->
      let arcs =
        List.filter_map
          (fun (u, v, c) ->
            if u < n && v < n && u <> v then Some (u, v, c) else None)
          raw_arcs
      in
      let src = 0 and sink = n - 1 in
      let net = Maxflow.create n in
      let ids = List.map (fun (u, v, c) -> (Maxflow.add_arc net u v c, u, v)) arcs in
      let cut = Maxflow.min_cut net ~src ~sink in
      if cut.Maxflow.value >= Maxflow.infinity then true
      else begin
        (* capacity across the cut equals flow value *)
        let cap_sum =
          List.fold_left
            (fun acc (_, _, id) ->
              let _, _, c = Maxflow.arc_info net id in
              acc + c)
            0 cut.Maxflow.arcs
        in
        let cut_ids = List.map (fun (_, _, id) -> id) cut.Maxflow.arcs in
        (* removing cut arcs disconnects *)
        let g = Digraph.create n in
        List.iter
          (fun (id, u, v) ->
            if not (List.mem id cut_ids) then Digraph.add_edge g u v)
          ids;
        let reach = Digraph.reachable g [ src ] in
        cap_sum = cut.Maxflow.value && not reach.(sink)
      end)

let prop_scc_condensation_acyclic =
  QCheck.Test.make ~count:200 ~name:"SCC condensation is acyclic"
    QCheck.(
      pair (int_range 1 10)
        (small_list (pair (int_range 0 9) (int_range 0 9))))
    (fun (n, raw) ->
      let g = Digraph.create n in
      List.iter (fun (u, v) -> if u < n && v < n then Digraph.add_edge g u v) raw;
      let dag, _ = Scc.condense g in
      Topo.is_acyclic dag)

let tests =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basic;
    Alcotest.test_case "digraph dedup" `Quick test_digraph_dedup;
    Alcotest.test_case "digraph transpose" `Quick test_digraph_transpose;
    Alcotest.test_case "digraph reachable" `Quick test_digraph_reachable;
    Alcotest.test_case "digraph bounds" `Quick test_digraph_bounds;
    Alcotest.test_case "scc cycle" `Quick test_scc_simple_cycle;
    Alcotest.test_case "scc topo numbering" `Quick test_scc_topological_numbering;
    Alcotest.test_case "scc condense" `Quick test_scc_condense_acyclic;
    Alcotest.test_case "scc self loop" `Quick test_scc_self_loop;
    Alcotest.test_case "topo order" `Quick test_topo_order;
    Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
    Alcotest.test_case "dom diamond" `Quick test_dom_diamond;
    Alcotest.test_case "dom loop" `Quick test_dom_loop;
    Alcotest.test_case "dom unreachable" `Quick test_dom_unreachable;
    Alcotest.test_case "dom children" `Quick test_dom_children;
    Alcotest.test_case "maxflow simple" `Quick test_maxflow_simple;
    Alcotest.test_case "maxflow bottleneck" `Quick test_maxflow_bottleneck;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    Alcotest.test_case "maxflow infinite" `Quick test_maxflow_infinite;
    Alcotest.test_case "maxflow duplicate arcs" `Quick
      test_maxflow_duplicate_accumulates;
    Alcotest.test_case "mincut arcs" `Quick test_mincut_arcs;
    Alcotest.test_case "mincut zero-cap crossing" `Quick
      test_mincut_includes_zero_cap;
    Alcotest.test_case "multicut shared" `Quick test_multicut_two_pairs_share;
    Alcotest.test_case "multicut disjoint" `Quick test_multicut_disjoint_pairs;
    Alcotest.test_case "multicut validates" `Quick test_multicut_validates;
    QCheck_alcotest.to_alcotest prop_mincut_disconnects;
    QCheck_alcotest.to_alcotest prop_scc_condensation_acyclic;
  ]
