open Gmt_ir
module Workload = Gmt_workloads.Workload
module Interp = Gmt_machine.Interp
module Sim = Gmt_machine.Sim
module Config = Gmt_machine.Config
module Pdg = Gmt_pdg.Pdg
module Partition = Gmt_sched.Partition
module Mtcg = Gmt_mtcg.Mtcg
module Coco = Gmt_coco.Coco
module Obs = Gmt_obs.Obs
module Verify = Gmt_verify.Verify
module Queue_alloc = Gmt_mtcg.Queue_alloc

type technique = Dswp | Gremio

let technique_name = function Dswp -> "DSWP" | Gremio -> "GREMIO"

exception Deadlock of string

(* Metric-key prefix identifying one evaluation cell, e.g.
   ["queens/dswp+coco"], or ["queens/dswp+coco@3"] at a thread count
   other than the paper's two. *)
let mt_label name technique coco n_threads =
  name ^ "/"
  ^ String.lowercase_ascii (technique_name technique)
  ^ (if coco then "+coco" else "")
  ^ if n_threads = 2 then "" else "@" ^ string_of_int n_threads

type compiled = {
  workload : Workload.t;
  technique : technique;
  coco : bool;
  n_threads : int;
  pdg : Pdg.t;
  partition : Partition.t;
  plan : Mtcg.plan;
  queues : Queue_alloc.t;
  origin : Mtcg.origin;
  mtp : Mtprog.t;
  coco_stats : Coco.stats option;
}

let machine_config ?(n_cores = 2) = function
  | Dswp -> Config.itanium2 ~n_cores ~queue_size:32 ()
  | Gremio -> Config.itanium2 ~n_cores ~queue_size:1 ()

(* Run the translation validator over one compiled program; returns its
   diagnostics (empty = verified). *)
let verify_compiled c =
  let label =
    mt_label c.workload.Workload.name c.technique c.coco c.n_threads
  in
  Obs.span ~cat:"stage" "req.verify" @@ fun () ->
  Obs.span ~args:[ ("cell", Obs.S label) ] "verify" (fun () ->
      Verify.run
        ~max_queues:(machine_config c.technique).Config.n_queues
        ~queue_of:c.queues.Queue_alloc.queue_of
        ~prune_mem:c.workload.Workload.mem_size
        ~pdg:c.pdg ~partition:c.partition ~plan:c.plan ~origin:c.origin c.mtp)

(* The per-program stage: every product of a workload that no technique
   or thread count changes. *)
type analysis = {
  an_workload : Workload.t;  (* after the optional opt pipeline *)
  an_profile : Gmt_analysis.Profile.t;
  an_pdg : Pdg.t;
}

let analyze ?(profile_mode = `Train) ?(optimize = false) (w : Workload.t) =
  Obs.span "validate" (fun () -> Validate.check w.func);
  let w =
    if optimize then
      Obs.span "opt.pipeline" (fun () ->
          { w with Workload.func = Gmt_opt.Opt.pipeline w.func })
    else w
  in
  let profile =
    match profile_mode with
    | `Static ->
      Obs.span "profile.static" (fun () ->
          Gmt_analysis.Profile.static_estimate w.func)
    | `Train ->
      Obs.span "profile.train" (fun () ->
          let r =
            Interp.run ~init_regs:w.train.Workload.regs
              ~init_mem:w.train.Workload.mem w.func ~mem_size:w.mem_size
          in
          if r.Interp.fuel_exhausted then
            failwith (w.name ^ ": train run exhausted fuel");
          r.Interp.profile)
  in
  let pdg = Pdg.build ~prune_mem:w.mem_size w.func in
  { an_workload = w; an_profile = profile; an_pdg = pdg }

(* The per-technique stage: one partition of an analysis. *)
type partitioned = {
  pt_analysis : analysis;
  pt_technique : technique;
  pt_n_threads : int;
  pt_partition : Partition.t;
}

let partition ?(n_threads = 2) technique an =
  let w = an.an_workload and pdg = an.an_pdg and profile = an.an_profile in
  let partition =
    Obs.span ~args:[ ("technique", Obs.S (technique_name technique)) ]
      "partition" (fun () ->
        match technique with
        | Dswp -> Gmt_sched.Dswp.partition ~n_threads pdg profile
        | Gremio -> Gmt_sched.Gremio.partition ~n_threads pdg profile)
  in
  (match Partition.errors partition w.func with
  | [] -> ()
  | es ->
    failwith
      (Printf.sprintf "%s/%s: bad partition: %s" w.name
         (technique_name technique)
         (String.concat "; " es)));
  { pt_analysis = an; pt_technique = technique; pt_n_threads = n_threads;
    pt_partition = partition }

(* The per-cell stage: communication placement, code generation and its
   checks, from a partition it only reads. *)
let codegen ?(coco = false) ?(verify = true) pt =
  let an = pt.pt_analysis and technique = pt.pt_technique in
  let w = an.an_workload and pdg = an.an_pdg and partition = pt.pt_partition in
  let label = mt_label w.name technique coco pt.pt_n_threads in
  if Obs.metrics_enabled () then
    for t = 0 to Partition.n_threads partition - 1 do
      Obs.Metrics.add
        (Printf.sprintf "partition.%s.thread%d.instrs" label t)
        (List.length (Partition.instrs_of partition t))
    done;
  let plan, coco_stats =
    if coco then
      let plan, stats =
        Obs.span "coco.optimize" (fun () ->
            Coco.optimize pdg partition an.an_profile)
      in
      if Obs.metrics_enabled () then begin
        Obs.Metrics.add ("coco." ^ label ^ ".iterations")
          stats.Coco.iterations;
        Obs.Metrics.add ("coco." ^ label ^ ".register_cuts")
          stats.Coco.register_cuts;
        Obs.Metrics.add ("coco." ^ label ^ ".memory_cuts")
          stats.Coco.memory_cuts;
        Obs.Metrics.add ("coco." ^ label ^ ".fallbacks") stats.Coco.fallbacks;
        let baseline = Mtcg.baseline_plan pdg partition in
        Obs.Metrics.add
          ("coco." ^ label ^ ".queues_eliminated")
          (max 0 (Mtcg.n_queues baseline - Mtcg.n_queues plan))
      end;
      (plan, Some stats)
    else
      (Obs.span "mtcg.plan" (fun () -> Mtcg.baseline_plan pdg partition), None)
  in
  if Obs.metrics_enabled () then
    Obs.Metrics.add ("mtcg." ^ label ^ ".queues") (Mtcg.n_queues plan);
  (* Fit the plan into the synchronization array's physical queues. *)
  let queues =
    Obs.span "queue.alloc" (fun () ->
        let limit = (machine_config technique).Config.n_queues in
        if Mtcg.n_queues plan > limit then
          Gmt_mtcg.Queue_alloc.allocate ~max_queues:limit plan.Mtcg.comms
        else Gmt_mtcg.Queue_alloc.identity plan.Mtcg.comms)
  in
  let mtp, origin =
    Obs.span "mtcg.generate" (fun () ->
        Mtcg.generate_with_origin ~queues pdg partition plan)
  in
  let mtp =
    Obs.span "opt.cleanup" (fun () -> Gmt_opt.Opt.cleanup_threads mtp)
  in
  let limit = (machine_config technique).Config.n_queues in
  Obs.span "validate.threads" (fun () ->
      Array.iter (Validate.check ~n_queues:limit) mtp.Mtprog.threads);
  let c =
    { workload = w; technique; coco; n_threads = pt.pt_n_threads; pdg;
      partition; plan; queues; origin; mtp; coco_stats }
  in
  if verify then begin
    match verify_compiled c with
    | [] -> ()
    | diags ->
      failwith
        (Printf.sprintf "%s: translation validation failed (%d diagnostics)\n%s"
           label (List.length diags) (Verify.render diags))
  end;
  c

let compile_span name technique coco n_threads f =
  Obs.span ~cat:"pipeline"
    ~args:[ ("cell", Obs.S (mt_label name technique coco n_threads)) ]
    "compile" f

let compile ?(n_threads = 2) ?(coco = false) ?profile_mode ?optimize ?verify
    technique (w : Workload.t) =
  compile_span w.name technique coco n_threads @@ fun () ->
  analyze ?profile_mode ?optimize w
  |> partition ~n_threads technique
  |> codegen ~coco ?verify

type metrics = {
  dyn_instrs : int;
  comm_instrs : int;
  mem_syncs : int;
  cycles : int;
  deadlocked : bool;
  fuel_exhausted : bool;
  stall_attr : int array array;
  queue_peak : int array;
}

(* Summarize a simulator run into the metrics registry: per-core cycle
   attribution (each core's buckets sum to [cycles]) and per-queue
   occupancy peaks. No-op unless metrics are enabled. *)
let record_sim_metrics label (sim : Sim.result) =
  if Obs.metrics_enabled () then begin
    Obs.Metrics.add (Printf.sprintf "sim.%s.cycles" label) sim.Sim.cycles;
    Array.iteri
      (fun ci row ->
        Array.iteri
          (fun b v ->
            Obs.Metrics.add
              (Printf.sprintf "sim.%s.core%d.stall.%s" label ci
                 Sim.stall_labels.(b))
              v)
          row)
      sim.Sim.stall_attr;
    Array.iteri
      (fun q v ->
        if v > 0 then
          Obs.Metrics.peak (Printf.sprintf "sim.%s.queue%d.peak" label q) v)
      sim.Sim.queue_peak
  end

let metrics_of_sim (sim : Sim.result) =
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 sim.Sim.per_core in
  {
    dyn_instrs = sum (fun c -> c.Sim.instrs);
    comm_instrs = sum (fun c -> c.Sim.comm_instrs);
    mem_syncs = sum (fun c -> c.Sim.sync_instrs);
    cycles = sim.Sim.cycles;
    deadlocked = sim.Sim.deadlocked;
    fuel_exhausted = sim.Sim.fuel_exhausted;
    stall_attr = sim.Sim.stall_attr;
    queue_peak = sim.Sim.queue_peak;
  }

(* The one execution of a measured program: simulate it on the
   reference input and read every count off that run. *)
let simulate ?fuel label mc ~(input : Workload.input) ~mem_size
    (p : Mtprog.t) =
  let sim =
    Obs.span "sim.run" (fun () ->
        Sim.run ?fuel ~init_regs:input.regs ~init_mem:input.mem mc p
          ~mem_size)
  in
  record_sim_metrics label sim;
  (sim, metrics_of_sim sim)

let measure_reference ?fuel (w : Workload.t) =
  let p =
    Mtprog.make ~name:w.func.Func.name ~threads:[| w.func |] ~n_queues:0
  in
  let sim, m =
    simulate ?fuel (w.name ^ "/single") (Config.itanium2 ())
      ~input:w.reference ~mem_size:w.mem_size p
  in
  (m, (sim.Sim.memory, m.dyn_instrs))

(* 512 words: each chunk is digested from one reused 4 KB buffer, so
   the digest allocates nothing proportional to the image. *)
let digest_chunk = 512

(* Most of a final image is untouched memory, so a full all-zero chunk
   reuses this digest instead of being encoded and hashed again. Built
   at module initialisation, not on first use: two domains forcing one
   [Lazy] at once raise. *)
let zero_chunk_digest = Digest.bytes (Bytes.make (8 * digest_chunk) '\000')

let memory_digest (memory : int array) =
  let n = Array.length memory in
  let buf = Bytes.create (8 * digest_chunk) in
  let sums = Bytes.create (16 * ((n + digest_chunk - 1) / digest_chunk)) in
  let rec zero_from i stop =
    i >= stop || (memory.(i) = 0 && zero_from (i + 1) stop)
  in
  let rec chunk i k =
    if i < n then begin
      let len = min digest_chunk (n - i) in
      let d =
        if len = digest_chunk && zero_from i (i + len) then zero_chunk_digest
        else begin
          for j = 0 to len - 1 do
            Bytes.set_int64_le buf (8 * j) (Int64.of_int memory.(i + j))
          done;
          Digest.subbytes buf 0 (8 * len)
        end
      in
      Bytes.blit_string d 0 sums (16 * k) 16;
      chunk (i + len) (k + 1)
    end
  in
  chunk 0 0;
  Digest.bytes sums

type oracle = Image of int array | Image_digest of string

let oracle_holds oracle memory =
  match oracle with
  | Image expect -> memory = expect
  | Image_digest d -> String.equal (memory_digest memory) d

(* The oracle an MT cell is checked against, or [None] when the
   reference run stopped short and its memory is partial. *)
let oracle_of ((m : metrics), (expect, _)) =
  if m.fuel_exhausted then None else Some (Image expect)

(* A caller's [expect], or else the reference simulated here. *)
let resolve_oracle ?fuel ?expect w =
  match expect with
  | Some (e, _) -> Some (Image e)
  | None -> oracle_of (measure_reference ?fuel w)

(* Shared measurement core: it reads only the generated program, the
   cell identity and the three things a program's measurement takes
   from its workload (name, reference input, memory size), so a fresh
   {!compiled} and a served cell with no parsed workload at all measure
   through the same code. *)
let measure_prog ?fuel ~oracle ~name ~input ~mem_size ~technique ~coco
    ~n_threads (mtp : Mtprog.t) =
  let label = mt_label name technique coco n_threads in
  let mc = machine_config ~n_cores:(max 2 n_threads) technique in
  let sim, m = simulate ?fuel label mc ~input ~mem_size mtp in
  if sim.Sim.deadlocked then
    raise
      (Deadlock
         (String.concat "\n"
            ((label ^ ": simulator deadlock") :: sim.Sim.deadlock_report)));
  (* A fuel-exhausted run (smoke mode's tiny budgets) has partial memory:
     the equivalence check only applies to a completed run, against a
     completed reference. *)
  match oracle with
  | None -> { m with fuel_exhausted = true }
  | Some o ->
    if (not m.fuel_exhausted) && not (oracle_holds o sim.Sim.memory) then
      failwith (label ^ ": simulated memory diverges");
    m

(* [measure_prog] for a program of workload [w]. *)
let measure_of ?fuel ~oracle ~technique ~coco ~n_threads (w : Workload.t) mtp
    =
  measure_prog ?fuel ~oracle ~name:w.name ~input:w.reference
    ~mem_size:w.mem_size ~technique ~coco ~n_threads mtp

let measure ?fuel ?expect c =
  measure_of ?fuel
    ~oracle:(resolve_oracle ?fuel ?expect c.workload)
    ~technique:c.technique ~coco:c.coco ~n_threads:c.n_threads c.workload
    c.mtp

let measure_single ?fuel ?expect (w : Workload.t) =
  let m, (memory, dyn) = measure_reference ?fuel w in
  (match expect with
  | Some (memory', dyn') when not m.fuel_exhausted ->
    if memory <> memory' then
      failwith (w.name ^ "/single: simulated memory diverges");
    if dyn <> dyn' then
      failwith
        (Printf.sprintf "%s/single: simulated %d instructions, expected %d"
           w.name dyn dyn')
  | _ -> ());
  m

(* ------------------- the evaluation matrix ------------------- *)

type cell_kind = Single | Mt of technique * bool

let cell_name = function
  | Single -> "single"
  | Mt (t, coco) ->
    String.lowercase_ascii (technique_name t) ^ if coco then "+coco" else ""

let measure_mt ?fuel ~oracle ~n_threads technique coco w =
  let c = compile ~n_threads ~coco technique w in
  measure_of ?fuel ~oracle ~technique ~coco ~n_threads w c.mtp

let measure_cell ?fuel ?expect ?(n_threads = 2) kind w =
  match kind with
  | Single -> measure_single ?fuel ?expect w
  | Mt (tech, coco) ->
    measure_mt ?fuel
      ~oracle:(resolve_oracle ?fuel ?expect w)
      ~n_threads tech coco w

type timed = {
  metrics : metrics;
  wall_s : float;
  passes : (string * float) list;
}

type row = {
  rw : Workload.t;
  shared_wall_s : float;
  shared_passes : (string * float) list;
  st : timed;
  gremio : timed;
  gremio_coco : timed;
  dswp : timed;
  dswp_coco : timed;
}

let techniques = [ Gremio; Dswp ]
let mt_cells = List.concat_map (fun t -> [ (t, false); (t, true) ]) techniques
let matrix_kinds = Single :: List.map (fun (t, coco) -> Mt (t, coco)) mt_cells

(* A cell's wall clock and per-pass breakdown, from its own span tree.
   A pass run once per technique is named for it: ["partition.gremio"]. *)
let time_cell label f =
  let t0 = Unix.gettimeofday () in
  let r, spans =
    Obs.collect (fun () -> Obs.span ~cat:"cell" ("cell:" ^ label) f)
  in
  let passes =
    List.filter_map
      (fun (s : Obs.span) ->
        if s.Obs.cat = "cell" then None
        else
          let name =
            match List.assoc_opt "technique" s.Obs.args with
            | Some (Obs.S t) -> s.Obs.name ^ "." ^ String.lowercase_ascii t
            | _ -> s.Obs.name
          in
          Some (name, s.Obs.dur_us /. 1e3))
      spans
  in
  (r, Unix.gettimeofday () -. t0, passes)

(* Fan the cells of the Fig 7/8 evaluation matrix out across a domain
   pool, in two phases. Phase 0 runs one task per row: the row's
   single-threaded cell, whose simulation is also its reference (the
   oracle memory image every MT cell of the row is checked against),
   then the row's analysis and one partition per technique. Phase 1
   runs the 4 MT cells of every row, each only the codegen stage of its
   row's partition plus its own simulation. Phase 0's products cross
   the phase barrier and are only read after it: no cell writes them.
   Results are merged in a fixed order, so the output is byte-identical
   for every [jobs] value, including the inline [jobs=1] path. *)
let run_matrix ?jobs ?fuel (ws : Workload.t list) =
  let prepare w () =
    let (m, expect), wall_s, passes =
      time_cell (w.Workload.name ^ "/single") (fun () ->
          measure_reference ?fuel w)
    in
    let parts, shared_wall_s, shared_passes =
      time_cell (w.Workload.name ^ "/shared") (fun () ->
          let an = analyze w in
          List.map (fun t -> (t, partition t an)) techniques)
    in
    ( { metrics = m; wall_s; passes },
      oracle_of (m, expect),
      parts,
      (shared_wall_s, shared_passes) )
  in
  let prepared = Gmt_parallel.Pool.run_list ?jobs (List.map prepare ws) in
  let cell w oracle parts (tech, coco) () =
    let m, wall_s, passes =
      time_cell
        (w.Workload.name ^ "/" ^ cell_name (Mt (tech, coco)))
        (fun () ->
          let c =
            compile_span w.Workload.name tech coco 2 (fun () ->
                codegen ~coco (List.assoc tech parts))
          in
          measure_of ?fuel ~oracle ~technique:tech ~coco ~n_threads:2 w c.mtp)
    in
    { metrics = m; wall_s; passes }
  in
  let results =
    Gmt_parallel.Pool.run_list ?jobs
      (List.concat_map
         (fun (w, (_, oracle, parts, _)) ->
           List.map (cell w oracle parts) mt_cells)
         (List.combine ws prepared))
  in
  let rec rows ws prepared results =
    match (ws, prepared, results) with
    | [], [], [] -> []
    | ( w :: ws',
        (st, _, _, (shared_wall_s, shared_passes)) :: prepared',
        g :: gc :: d :: dc :: rest ) ->
      { rw = w; shared_wall_s; shared_passes; st; gremio = g;
        gremio_coco = gc; dswp = d; dswp_coco = dc }
      :: rows ws' prepared' rest
    | _ -> assert false
  in
  rows ws prepared results
