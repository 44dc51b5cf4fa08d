open Gmt_ir
module Pdg = Gmt_pdg.Pdg
module Digraph = Gmt_graphalg.Digraph

type t = { n_threads : int; assign : (int, int) Hashtbl.t }

let make ~n_threads pairs =
  if n_threads <= 0 then invalid_arg "Partition.make: n_threads <= 0";
  let assign = Hashtbl.create 64 in
  List.iter
    (fun (id, th) ->
      if th < 0 || th >= n_threads then
        invalid_arg
          (Printf.sprintf "Partition.make: thread %d out of range for i%d" th id);
      if Hashtbl.mem assign id then
        invalid_arg (Printf.sprintf "Partition.make: i%d assigned twice" id);
      Hashtbl.add assign id th)
    pairs;
  { n_threads; assign }

let n_threads t = t.n_threads

let thread_of t id =
  match Hashtbl.find_opt t.assign id with
  | Some th -> th
  | None -> raise Not_found

let thread_of_opt t id = Hashtbl.find_opt t.assign id

let instrs_of t th =
  Hashtbl.fold (fun id th' acc -> if th = th' then id :: acc else acc) t.assign []
  |> List.sort compare

let errors t (f : Func.t) =
  let errs = ref [] in
  Cfg.iter_instrs f.cfg (fun _ (i : Instr.t) ->
      if (not (Instr.is_structural i)) && not (Hashtbl.mem t.assign i.id) then
        errs := Printf.sprintf "i%d unassigned" i.id :: !errs);
  Hashtbl.iter
    (fun id _ ->
      match Cfg.find_instr f.cfg id with
      | _ -> ()
      | exception Not_found ->
        errs := Printf.sprintf "i%d assigned but not in function" id :: !errs)
    t.assign;
  List.rev !errs

let thread_graph t pdg =
  let g = Digraph.create t.n_threads in
  List.iter
    (fun (a : Pdg.arc) ->
      match (thread_of_opt t a.src, thread_of_opt t a.dst) with
      | Some ts, Some tt when ts <> tt -> Digraph.add_edge g ts tt
      | _ -> ())
    (Pdg.arcs pdg);
  g

let is_pipeline t pdg = Gmt_graphalg.Topo.is_acyclic (thread_graph t pdg)

let pp ppf t =
  Format.fprintf ppf "@[<v>partition (%d threads):" t.n_threads;
  for th = 0 to t.n_threads - 1 do
    Format.fprintf ppf "@,  T%d: {%s}" th
      (String.concat ", "
         (List.map (fun id -> "i" ^ string_of_int id) (instrs_of t th)))
  done;
  Format.fprintf ppf "@]"
