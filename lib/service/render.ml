module V = Gmt_core.Velocity
module Workload = Gmt_workloads.Workload
module W = Workload
module Text = Gmt_frontend.Text
module Verify = Gmt_verify.Verify
module Pool = Gmt_parallel.Pool
module Cache = Gmt_cache.Cache
module Obs = Gmt_obs.Obs

let exit_deadlock = 1
let exit_parse = 2
let exit_unknown = 3
let exit_verify = 4
let exit_timeout = 5
let exit_busy = 6

type outcome = {
  out : string;
  err : string;
  code : int;
  cache_status : string;
}

(* Internal: unwound into a timeout outcome at the entry points. *)
exception Timeout of string

(* The historical gmtc deadlock rendering: one headline, then the
   per-thread blocked report indented. *)
let deadlock_text msg =
  let first, rest =
    match String.split_on_char '\n' msg with
    | [] -> ("deadlock", [])
    | f :: r -> (f, r)
  in
  String.concat ""
    (Printf.sprintf "gmtc: deadlock: %s\n" first
    :: List.map (Printf.sprintf "  %s\n") rest)

let timeout_text label =
  Printf.sprintf
    "gmtc: timeout: %s: fuel budget exhausted mid-simulation (partial \
     results discarded)\n"
    label

(* Run [f], mapping the failure modes every entry point shares onto
   outcomes with the documented exit codes. [status] is a ref so a
   failure after the cache lookup still reports the real hit/miss. *)
let guarded status f =
  match f () with
  | o -> o
  | exception V.Deadlock msg ->
    {
      out = "";
      err = deadlock_text msg;
      code = exit_deadlock;
      cache_status = !status;
    }
  | exception Timeout label ->
    {
      out = "";
      err = timeout_text label;
      code = exit_timeout;
      cache_status = !status;
    }
  | exception Failure msg ->
    {
      out = "";
      err = Printf.sprintf "gmtc: error: %s\n" msg;
      code = exit_deadlock;
      cache_status = !status;
    }

let technique_of_name = function
  | "gremio" -> Some V.Gremio
  | "dswp" -> Some V.Dswp
  | _ -> None

let cell_label (w : W.t) technique coco =
  Printf.sprintf "%s/%s" w.W.name (V.cell_name (V.Mt (technique, coco)))

(* ------------------------------- run ------------------------------- *)

(* The reference runs first: it is the oracle the compiled cell is
   checked against, so a reference that runs out of fuel ends the
   request before the cache is probed (counting neither a hit nor a
   miss). *)
let run ?cache ?fuel ?(verify = true) ~technique ~coco ~threads (w : W.t) =
  let label = cell_label w technique coco in
  let status = ref "none" in
  guarded status @@ fun () ->
  let st, expect =
    Obs.span ~cat:"stage" "req.simulate" (fun () ->
        V.measure_reference ?fuel w)
  in
  if st.V.deadlocked then
    raise (V.Deadlock (w.W.name ^ "/single: simulator deadlock"));
  if st.V.fuel_exhausted then raise (Timeout (w.W.name ^ "/single"));
  if cache <> None then status := "miss";
  let a =
    V.compile_cached ?cache ~n_threads:threads ~coco ~verify technique w
  in
  if cache <> None && a.V.a_from_cache then status := "hit";
  let m =
    Obs.span ~cat:"stage" "req.simulate" (fun () ->
        V.measure_artifact ?fuel ~expect a)
  in
  if m.V.fuel_exhausted then raise (Timeout label);
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s / %s%s / %d threads\n" w.W.name (V.technique_name technique)
    (if coco then "+COCO" else "")
    threads;
  pf "  single-threaded : %8d instrs %8d cycles\n" st.V.dyn_instrs st.V.cycles;
  pf "  multi-threaded  : %8d instrs %8d cycles\n" m.V.dyn_instrs m.V.cycles;
  pf "  communication   : %8d instrs (%.1f%%), %d memory syncs\n"
    m.V.comm_instrs
    (100.0 *. float_of_int m.V.comm_instrs /. float_of_int m.V.dyn_instrs)
    m.V.mem_syncs;
  pf "  speedup         : %.2fx\n"
    (float_of_int st.V.cycles /. float_of_int m.V.cycles);
  pf "  (memory state verified against the single-threaded run)\n";
  { out = Buffer.contents buf; err = ""; code = 0; cache_status = !status }

(* ------------------------------ check ------------------------------ *)

let verified_out ~label ~threads n_queues comm_sites =
  Printf.sprintf "%s: verified (%d threads, %d queues, %d comm sites)\n" label
    threads n_queues comm_sites

let lookup cache =
  Obs.span ~cat:"stage" "req.cache.lookup" (fun () ->
      Option.bind cache (fun (c, key) -> Cache.find c key))

let hit_outcome ~label ~threads (e : Cache.entry) =
  {
    out = verified_out ~label ~threads e.Cache.mtp.Gmt_ir.Mtprog.n_queues
        e.Cache.comm_sites;
    err = "";
    code = 0;
    cache_status = "hit";
  }

(* A check whose lookup missed (or that has no cache): compile
   unverified, validate, and store only a clean artifact. *)
let check_miss ?cache ~technique ~coco ~threads (w : W.t) =
  let label = cell_label w technique coco in
  let cache_status = if cache = None then "none" else "miss" in
  guarded (ref cache_status) @@ fun () ->
  let c =
    Obs.span ~cat:"stage" "req.compile" (fun () ->
        V.compile ~n_threads:threads ~coco ~verify:false technique w)
  in
  let diags = V.verify_compiled c in
  let comm_sites = List.length c.V.plan.Gmt_mtcg.Mtcg.comms in
  if diags = [] then begin
    Option.iter
      (fun (cch, key) ->
        Cache.store cch key
          {
            Cache.mtp = c.V.mtp;
            comm_sites;
            verified = true;
            w_name = w.W.name;
          })
      cache;
    {
      out = verified_out ~label ~threads c.V.mtp.Gmt_ir.Mtprog.n_queues
          comm_sites;
      err = "";
      code = 0;
      cache_status;
    }
  end
  else
    {
      out = "";
      err =
        Printf.sprintf
          "%s: translation validation FAILED (%d diagnostics)\n%s\n" label
          (List.length diags) (Verify.render diags);
      code = exit_verify;
      cache_status;
    }

let check ?cache ~technique ~coco ~threads (w : W.t) =
  match lookup cache with
  | Some e ->
    hit_outcome ~label:(cell_label w technique coco) ~threads e
  | None -> check_miss ?cache ~technique ~coco ~threads w

(* The service's hot path: the caller keyed the received text as-is,
   and parsing is paid only on a miss. A hit needs no [Workload.t] at
   all — the label comes from the [w_name] the entry recorded at store
   time, so a warm check costs the caller's one digest over the request
   bytes plus a table lookup. Non-canonical text from a foreign client
   simply keys its own entry; the reply bytes are identical either
   way. *)
let check_text ?cache ~technique ~coco ~threads text =
  match lookup cache with
  | Some e ->
    let label =
      Printf.sprintf "%s/%s" e.Cache.w_name
        (V.cell_name (V.Mt (technique, coco)))
    in
    hit_outcome ~label ~threads e
  | None -> (
    match Text.parse ~file:"<request>" text with
    | Error e ->
      {
        out = "";
        err = Printf.sprintf "gmtc: %s\n" (Text.render_error e);
        code = exit_parse;
        cache_status = (if cache = None then "none" else "miss");
      }
    | Ok w -> check_miss ?cache ~technique ~coco ~threads w)

(* ------------------------------ sweep ------------------------------ *)

let sweep ?(jobs = 1) ?fuel ~max_threads (w : W.t) =
  guarded (ref "none") @@ fun () ->
  let train =
    Obs.span ~cat:"stage" "req.simulate" (fun () ->
        Gmt_machine.Interp.run ?fuel
          ~init_regs:w.W.train.W.regs ~init_mem:w.W.train.W.mem w.W.func
          ~mem_size:w.W.mem_size)
  in
  if train.Gmt_machine.Interp.fuel_exhausted then
    raise (Timeout (w.W.name ^ "/train"));
  let profile = train.Gmt_machine.Interp.profile in
  let pdg = Gmt_pdg.Pdg.build w.W.func in
  let cell n () =
    let part = Gmt_sched.Gremio.partition ~n_threads:n pdg profile in
    let measure plan =
      let mtp = Gmt_mtcg.Mtcg.generate pdg part plan in
      let r =
        Gmt_machine.Mt_interp.run ?fuel
          ~init_regs:w.W.reference.W.regs ~init_mem:w.W.reference.W.mem mtp
          ~queue_capacity:32 ~mem_size:w.W.mem_size
      in
      if r.Gmt_machine.Mt_interp.deadlocked then
        raise
          (V.Deadlock
             (String.concat "\n"
                (Printf.sprintf "%s: deadlock at %d threads" w.W.name n
                :: r.Gmt_machine.Mt_interp.blocked)));
      if r.Gmt_machine.Mt_interp.fuel_exhausted then
        raise (Timeout (Printf.sprintf "%s/sweep@%d" w.W.name n));
      Gmt_machine.Mt_interp.total_comm r
    in
    let base = measure (Gmt_mtcg.Mtcg.baseline_plan pdg part) in
    let coco = measure (fst (Gmt_coco.Coco.optimize pdg part profile)) in
    (n, base, coco)
  in
  let cells =
    Pool.run_list ~jobs
      (List.init (max 0 (max_threads - 1)) (fun i -> cell (i + 2)))
  in
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%8s | %12s | %12s | %s\n" "threads" "comm(MTCG)" "comm(+COCO)"
    "remaining";
  List.iter
    (fun (n, base, coco) ->
      pf "%8d | %12d | %12d | %8.1f%%\n" n base coco
        (100.0 *. float_of_int coco /. float_of_int (max 1 base)))
    cells;
  { out = Buffer.contents buf; err = ""; code = 0; cache_status = "none" }
