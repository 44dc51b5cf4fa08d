(* PDG construction: register flow, memory direction/bidirectionality,
   control and transitive control dependences. *)

open Gmt_ir
module Pdg = Gmt_pdg.Pdg

let has_arc pdg ~src ~dst kind_pred =
  List.exists
    (fun (a : Pdg.arc) -> a.src = src && a.dst = dst && kind_pred a.kind)
    (Pdg.arcs pdg)

let is_reg = function Pdg.Reg _ -> true | _ -> false
let is_mem = function Pdg.Mem _ -> true | _ -> false
let is_ctrl = function Pdg.Ctrl -> true | _ -> false
let is_ctrl_trans = function Pdg.Ctrl_trans -> true | _ -> false

let test_fig3_register_arcs () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  Alcotest.(check bool) "A -> F (r2)" true
    (has_arc pdg ~src:fx.Test_util.a ~dst:fx.Test_util.f_store is_reg);
  Alcotest.(check bool) "E -> F (r2)" true
    (has_arc pdg ~src:fx.Test_util.e ~dst:fx.Test_util.f_store is_reg);
  Alcotest.(check bool) "no F -> A" false
    (has_arc pdg ~src:fx.Test_util.f_store ~dst:fx.Test_util.a (fun _ -> true))

let test_fig3_control_arcs () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  (* B controls C and D (block B1); D controls E (block B3). *)
  Alcotest.(check bool) "B ctrl C" true
    (has_arc pdg ~src:fx.Test_util.b ~dst:fx.Test_util.c is_ctrl);
  Alcotest.(check bool) "B ctrl D" true
    (has_arc pdg ~src:fx.Test_util.b ~dst:fx.Test_util.d is_ctrl);
  Alcotest.(check bool) "D ctrl E" true
    (has_arc pdg ~src:fx.Test_util.d ~dst:fx.Test_util.e is_ctrl);
  (* F is in the post-dominating join: no control deps into it. *)
  Alcotest.(check bool) "no ctrl into F" false
    (has_arc pdg ~src:fx.Test_util.b ~dst:fx.Test_util.f_store is_ctrl)

let test_fig3_transitive_control () =
  (* The paper's D -> F arc: D controls E, and E -> F is a data dep. *)
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  Alcotest.(check bool) "D ctrl* F" true
    (has_arc pdg ~src:fx.Test_util.d ~dst:fx.Test_util.f_store is_ctrl_trans);
  Alcotest.(check bool) "B ctrl* F" true
    (has_arc pdg ~src:fx.Test_util.b ~dst:fx.Test_util.f_store is_ctrl_trans);
  (* And B transitively controls E via D. *)
  Alcotest.(check bool) "B ctrl* E" true
    (has_arc pdg ~src:fx.Test_util.b ~dst:fx.Test_util.e is_ctrl_trans)

let test_control_closure () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  Alcotest.(check (list int)) "closure of E = {B, D}"
    (List.sort compare [ fx.Test_util.b; fx.Test_util.d ])
    (List.sort compare (Pdg.control_closure pdg fx.Test_util.e));
  Alcotest.(check (list int)) "closure of F = {}" []
    (Pdg.control_closure pdg fx.Test_util.f_store)

(* Memory: straight-line stores are ordered one way; loop accesses are
   bidirectional. *)
let test_memory_straightline () =
  let b = Builder.create ~name:"mem" () in
  let r0 = Builder.reg b in
  let m = Builder.region b "m" in
  let b0 = Builder.block b in
  ignore (Builder.add b b0 (Instr.Const (r0, 1)));
  let s1 = Builder.add b b0 (Instr.Store (m, r0, 0, r0)) in
  let s2 = Builder.add b b0 (Instr.Store (m, r0, 1, r0)) in
  ignore (Builder.terminate b b0 Instr.Return);
  let f = Builder.finish b ~live_in:[] ~live_out:[] in
  let pdg = Pdg.build f in
  Alcotest.(check bool) "s1 -> s2 WAW" true
    (has_arc pdg ~src:s1.Instr.id ~dst:s2.Instr.id is_mem);
  Alcotest.(check bool) "no s2 -> s1" false
    (has_arc pdg ~src:s2.Instr.id ~dst:s1.Instr.id is_mem)

let test_memory_loop_bidirectional () =
  let b = Builder.create ~name:"memloop" () in
  let n = Builder.reg b in
  let i = Builder.reg b and one = Builder.reg b and c = Builder.reg b in
  let v = Builder.reg b in
  let m = Builder.region b "m" in
  let b0 = Builder.block b in
  let b1 = Builder.block b in
  let b2 = Builder.block b in
  ignore (Builder.add b b0 (Instr.Const (i, 0)));
  ignore (Builder.add b b0 (Instr.Const (one, 1)));
  ignore (Builder.terminate b b0 (Instr.Jump b1));
  let ld = Builder.add b b1 (Instr.Load (m, v, i, 0)) in
  let st = Builder.add b b1 (Instr.Store (m, i, 1, v)) in
  ignore (Builder.add b b1 (Instr.Binop (Instr.Add, i, i, one)));
  ignore (Builder.add b b1 (Instr.Binop (Instr.Lt, c, i, n)));
  ignore (Builder.terminate b b1 (Instr.Branch (c, b1, b2)));
  ignore (Builder.terminate b b2 Instr.Return);
  let f = Builder.finish b ~live_in:[ n ] ~live_out:[] in
  let pdg = Pdg.build f in
  Alcotest.(check bool) "store -> load (loop carried)" true
    (has_arc pdg ~src:st.Instr.id ~dst:ld.Instr.id is_mem);
  Alcotest.(check bool) "load -> store (WAR)" true
    (has_arc pdg ~src:ld.Instr.id ~dst:st.Instr.id is_mem)

let test_memory_distinct_regions_no_arcs () =
  let b = Builder.create ~name:"regions" () in
  let r0 = Builder.reg b in
  let m1 = Builder.region b "m1" in
  let m2 = Builder.region b "m2" in
  let b0 = Builder.block b in
  ignore (Builder.add b b0 (Instr.Const (r0, 1)));
  let s1 = Builder.add b b0 (Instr.Store (m1, r0, 0, r0)) in
  let s2 = Builder.add b b0 (Instr.Store (m2, r0, 0, r0)) in
  ignore (Builder.terminate b b0 Instr.Return);
  let f = Builder.finish b ~live_in:[] ~live_out:[] in
  let pdg = Pdg.build f in
  Alcotest.(check bool) "no cross-region arc" false
    (has_arc pdg ~src:s1.Instr.id ~dst:s2.Instr.id is_mem)

(* Offset disambiguation by the [prune_mem] pruner on a 1024-word
   memory: one invariant base at distinct constant offsets =>
   independent; a loop-variant base, or offsets equal modulo the memory
   size (addresses wrap), stay dependent. *)
let offset_funcs ?(load_off = 1) ~variant_base () =
  let b = Builder.create ~name:"offsets" () in
  let n = Builder.reg b in
  let base = Builder.reg b in
  let i = Builder.reg b and one = Builder.reg b and c = Builder.reg b in
  let v = Builder.reg b in
  let m = Builder.region b "m" in
  let b0 = Builder.block b in
  let b1 = Builder.block b in
  let b2 = Builder.block b in
  ignore (Builder.add b b0 (Instr.Const (i, 0)));
  ignore (Builder.add b b0 (Instr.Const (one, 1)));
  if not variant_base then ignore (Builder.add b b0 (Instr.Const (base, 16)));
  ignore (Builder.terminate b b0 (Instr.Jump b1));
  if variant_base then
    ignore (Builder.add b b1 (Instr.Binop (Instr.Add, base, i, one)));
  let s0 = Builder.add b b1 (Instr.Store (m, base, 0, i)) in
  let l1 = Builder.add b b1 (Instr.Load (m, v, base, load_off)) in
  ignore (Builder.add b b1 (Instr.Binop (Instr.Add, i, i, one)));
  ignore (Builder.add b b1 (Instr.Binop (Instr.Lt, c, i, n)));
  ignore (Builder.terminate b b1 (Instr.Branch (c, b1, b2)));
  ignore (Builder.terminate b b2 Instr.Return);
  let f = Builder.finish b ~live_in:[ n ] ~live_out:[] in
  (f, s0.Instr.id, l1.Instr.id)

let test_offset_disambiguation () =
  let f, st, ld = offset_funcs ~variant_base:false () in
  let pdg_off = Pdg.build f in
  let pdg_on = Pdg.build ~prune_mem:1024 f in
  Alcotest.(check bool) "conservative: dependent" true
    (has_arc pdg_off ~src:st ~dst:ld is_mem);
  Alcotest.(check bool) "disambiguated: independent" false
    (has_arc pdg_on ~src:st ~dst:ld is_mem);
  Alcotest.(check bool) "disambiguated reverse too" false
    (has_arc pdg_on ~src:ld ~dst:st is_mem)

let test_offset_disambiguation_loop_variant_base () =
  let f, st, ld = offset_funcs ~variant_base:true () in
  let pdg_on = Pdg.build ~prune_mem:1024 f in
  (* base changes every iteration: store@k+0 can equal load@k'+1 *)
  Alcotest.(check bool) "variant base stays dependent" true
    (has_arc pdg_on ~src:st ~dst:ld is_mem)

let test_offset_disambiguation_wraps () =
  let f, st, ld = offset_funcs ~load_off:1024 ~variant_base:false () in
  let pdg_on = Pdg.build ~prune_mem:1024 f in
  (* [base+0] and [base+1024] are one word of a 1024-word memory *)
  Alcotest.(check bool) "wrapped offset stays dependent" true
    (has_arc pdg_on ~src:st ~dst:ld is_mem);
  Alcotest.(check bool) "and its reverse" true
    (has_arc pdg_on ~src:ld ~dst:st is_mem)

let test_to_digraph_roundtrip () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  let g, node_of_id, id_of_node = Pdg.to_digraph pdg in
  List.iter
    (fun id ->
      Alcotest.(check int) "roundtrip" id (id_of_node (node_of_id id)))
    (Pdg.nodes pdg);
  Alcotest.(check int) "node count"
    (List.length (Pdg.nodes pdg))
    (Gmt_graphalg.Digraph.n_nodes g)

let test_preds_succs_consistent () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  List.iter
    (fun (a : Pdg.arc) ->
      Alcotest.(check bool) "arc in succs of src" true
        (List.exists (fun (x : Pdg.arc) -> x.dst = a.dst && x.kind = a.kind)
           (Pdg.succs pdg a.src));
      Alcotest.(check bool) "arc in preds of dst" true
        (List.exists (fun (x : Pdg.arc) -> x.src = a.src && x.kind = a.kind)
           (Pdg.preds pdg a.dst)))
    (Pdg.arcs pdg)

let test_no_self_arcs () =
  List.iter
    (fun (w : Gmt_workloads.Workload.t) ->
      let pdg = Pdg.build w.Gmt_workloads.Workload.func in
      List.iter
        (fun (a : Pdg.arc) ->
          if a.src = a.dst then
            Alcotest.failf "self arc i%d in %s" a.src
              w.Gmt_workloads.Workload.name)
        (Pdg.arcs pdg))
    (Gmt_workloads.Suite.all ())

(* Static memory-arc pruning ([prune_mem]) must stay opt-in, must only
   remove memory arcs, and must actually fire on the suite (gromacs's
   scratch-buffer accesses are the paper's motivating case). *)
let n_arcs pred pdg =
  List.length (List.filter (fun (a : Pdg.arc) -> pred a.Pdg.kind) (Pdg.arcs pdg))

let test_prune_mem_opt_in () =
  let module W = Gmt_workloads.Workload in
  let w = Gmt_workloads.Suite.find "435.gromacs" in
  let plain = Pdg.build w.W.func in
  Alcotest.(check int) "default build prunes nothing" 0 (Pdg.mem_pruned plain);
  let pruned = Pdg.build ~prune_mem:w.W.mem_size w.W.func in
  Alcotest.(check bool) "gromacs arcs pruned" true (Pdg.mem_pruned pruned > 0);
  Alcotest.(check int) "memory arc count drops by exactly the pruned count"
    (n_arcs is_mem plain - Pdg.mem_pruned pruned)
    (n_arcs is_mem pruned);
  Alcotest.(check int) "non-memory arcs untouched"
    (n_arcs (fun k -> not (is_mem k)) plain)
    (n_arcs (fun k -> not (is_mem k)) pruned);
  let total =
    List.fold_left
      (fun acc (w : W.t) ->
        acc + Pdg.mem_pruned (Pdg.build ~prune_mem:w.W.mem_size w.W.func))
      0
      (Gmt_workloads.Suite.all ())
  in
  Alcotest.(check bool) "suite prunes at least one arc" true (total > 0)

let test_filter_arcs () =
  let fx = Test_util.fig3 () in
  let pdg = Test_util.pdg_of fx.Test_util.func in
  let all = Pdg.filter_arcs pdg ~f:(fun _ -> true) in
  Alcotest.(check int) "identity filter keeps every arc"
    (List.length (Pdg.arcs pdg))
    (List.length (Pdg.arcs all));
  let victim = List.hd (Pdg.arcs pdg) in
  let cut = Pdg.filter_arcs pdg ~f:(fun a -> a <> victim) in
  Alcotest.(check int) "one arc dropped"
    (List.length (Pdg.arcs pdg) - 1)
    (List.length (Pdg.arcs cut));
  Alcotest.(check bool) "dropped arc gone from succs" false
    (List.exists
       (fun (a : Pdg.arc) -> a.Pdg.dst = victim.Pdg.dst && a.Pdg.kind = victim.Pdg.kind)
       (Pdg.succs cut victim.Pdg.src))

let tests =
  [
    Alcotest.test_case "fig3 register arcs" `Quick test_fig3_register_arcs;
    Alcotest.test_case "fig3 control arcs" `Quick test_fig3_control_arcs;
    Alcotest.test_case "fig3 transitive control" `Quick
      test_fig3_transitive_control;
    Alcotest.test_case "control closure" `Quick test_control_closure;
    Alcotest.test_case "memory straight-line" `Quick test_memory_straightline;
    Alcotest.test_case "memory loop bidirectional" `Quick
      test_memory_loop_bidirectional;
    Alcotest.test_case "memory distinct regions" `Quick
      test_memory_distinct_regions_no_arcs;
    Alcotest.test_case "offset disambiguation" `Quick
      test_offset_disambiguation;
    Alcotest.test_case "offset disambiguation loop-variant" `Quick
      test_offset_disambiguation_loop_variant_base;
    Alcotest.test_case "offset disambiguation wraps" `Quick
      test_offset_disambiguation_wraps;
    Alcotest.test_case "to_digraph roundtrip" `Quick test_to_digraph_roundtrip;
    Alcotest.test_case "preds/succs consistent" `Quick
      test_preds_succs_consistent;
    Alcotest.test_case "no self arcs (suite)" `Quick test_no_self_arcs;
    Alcotest.test_case "prune_mem opt-in + counts" `Quick test_prune_mem_opt_in;
    Alcotest.test_case "filter_arcs" `Quick test_filter_arcs;
  ]
