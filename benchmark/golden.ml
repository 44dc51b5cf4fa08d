(* The golden reference every matrix rep and every served reply is
   checked against: expected/cells.tsv, compiled into the executable
   (see the dune rule), one row per Fig-8 cell. The counts are exact
   simulator outputs, and the MT rows carry the byte-exact [gmtc check]
   verdict line. *)

module V = Gmt_core.Velocity
module Workload = Gmt_workloads.Workload

type row = {
  cycles : int;
  dyn_instrs : int;
  comm_instrs : int;
  mem_syncs : int;
  verdict : string;  (** [gmtc check] line without its newline; "" for single *)
}

let header = "bench\tcell\tcycles\tdyn_instrs\tcomm_instrs\tmem_syncs\tcheck"

let parse tsv =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' tsv
  |> List.iter (fun line ->
         if line <> "" && line <> header then
           match String.split_on_char '\t' line with
           | [ bench; cell; cycles; dyn; comm; syncs; check ] ->
             Hashtbl.replace tbl (bench ^ "/" ^ cell)
               {
                 cycles = int_of_string cycles;
                 dyn_instrs = int_of_string dyn;
                 comm_instrs = int_of_string comm;
                 mem_syncs = int_of_string syncs;
                 verdict = (if check = "-" then "" else check);
               }
           | _ -> failwith ("expected/cells.tsv: malformed row: " ^ line));
  tbl

let table = lazy (parse Golden_data.tsv)

let find bench cell =
  match Hashtbl.find_opt (Lazy.force table) (bench ^ "/" ^ cell) with
  | Some r -> r
  | None -> failwith (Printf.sprintf "no golden row for %s/%s" bench cell)

(* Whether a measured cell reproduces its golden counts. *)
let matches bench cell (m : V.metrics) =
  let r = find bench cell in
  (not m.V.deadlocked) && (not m.V.fuel_exhausted) && m.V.cycles = r.cycles
  && m.V.dyn_instrs = r.dyn_instrs
  && m.V.comm_instrs = r.comm_instrs
  && m.V.mem_syncs = r.mem_syncs

(* The expected [gmtc check] output of an MT cell. [renamed] replaces
   the workload name in the label, for requests whose [workload] line
   was rewritten. *)
let verdict ?renamed bench cell =
  let v = (find bench cell).verdict in
  match renamed with
  | None -> v ^ "\n"
  | Some name ->
    let n = String.length bench in
    name ^ String.sub v n (String.length v - n) ^ "\n"

(* The five cells of a matrix row, in {!V.matrix_kinds} order. *)
let cells_of_row (r : V.row) =
  List.combine V.matrix_kinds
    [ r.V.st; r.V.gremio; r.V.gremio_coco; r.V.dswp; r.V.dswp_coco ]

(* Regenerates expected/cells.tsv from the current pipeline. Only for a
   change that alters the program's outputs on purpose; cross-check the
   result against BENCH_fig8.json before committing it. *)
let print () =
  print_endline header;
  let ws = Gmt_workloads.Suite.all () in
  List.iter
    (fun (r : V.row) ->
      let w = r.V.rw in
      List.iter
        (fun (kind, (t : V.timed)) ->
          let m = t.V.metrics in
          let check =
            match kind with
            | V.Single -> "-"
            | V.Mt (technique, coco) ->
              let o =
                Gmt_service.Render.check ~technique ~coco ~threads:2 w
              in
              if o.Gmt_service.Render.code <> 0 then
                failwith (w.Workload.name ^ ": check failed");
              String.trim o.Gmt_service.Render.out
          in
          Printf.printf "%s\t%s\t%d\t%d\t%d\t%d\t%s\n" w.Workload.name
            (V.cell_name kind) m.V.cycles m.V.dyn_instrs m.V.comm_instrs
            m.V.mem_syncs check)
        (cells_of_row r))
    (V.run_matrix ~jobs:1 ws)
