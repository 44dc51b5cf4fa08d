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

let cell_label name technique coco =
  Printf.sprintf "%s/%s" name (V.cell_name (V.Mt (technique, coco)))

let parse_text ~cache_status text =
  Obs.span ~cat:"stage" "req.parse" (fun () ->
      Text.parse ~file:"<request>" text)
  |> Result.map_error (fun e ->
         {
           out = "";
           err = Printf.sprintf "gmtc: %s\n" (Text.render_error e);
           code = exit_parse;
           cache_status;
         })

let fingerprint ?(n_threads = 2) ?(coco = false) technique ~canonical =
  let mc = V.machine_config ~n_cores:(max 2 n_threads) technique in
  Gmt_cache.Fingerprint.compute ~text:canonical
    ~technique:(V.technique_name technique) ~n_threads ~coco
    ~machine:(Format.asprintf "%a" Gmt_machine.Config.pp mc)
    ()

let lookup cache =
  Obs.span ~cat:"stage" "req.cache.lookup" (fun () ->
      Option.bind cache (fun (c, key) -> Cache.find c key))

(* The one builder of a cache entry: [c]'s code with its plan's
   transfer count and its workload's name, stored under the request's
   key when there is a cache. Only verified code comes with a cache. *)
let store cache (c : V.compiled) =
  let e =
    {
      Cache.mtp = c.V.mtp;
      comm_sites = List.length c.V.plan.Gmt_mtcg.Mtcg.comms;
      verified = true;
      w_name = c.V.workload.W.name;
    }
  in
  Option.iter (fun (cch, key) -> Cache.store cch key e) cache;
  e

(* A run's miss: compile and verify the cell, then store it. [verify]
   is false only for offline [run], which has no cache. *)
let compile_run ?cache ?verify ~technique ~coco ~threads w =
  let c =
    Obs.span ~cat:"stage" "req.compile" (fun () ->
        V.compile ~n_threads:threads ~coco ?verify technique w)
  in
  (store cache c).Cache.mtp

(* ------------------------------- run ------------------------------- *)

(* [mem] holds address, value, address, value, ...: two words a pair
   where the parsed list takes six. *)
type input = { regs : (Gmt_ir.Reg.t * int) list; mem : int array }

type reference = {
  name : string;
  mem_size : int;
  input : input;
  st_instrs : int;
  st_cycles : int;
  digest : string;
  fuel : int;
}

let fuel_or_default = Option.value ~default:Gmt_machine.Sim.default_fuel
let applies ?fuel r = r.fuel <= fuel_or_default fuel

let reference_of ?fuel (w : W.t) (st : V.metrics) image =
  let pairs = w.W.reference.W.mem in
  let mem = Array.make (2 * List.length pairs) 0 in
  List.iteri
    (fun i (a, v) ->
      mem.(2 * i) <- a;
      mem.((2 * i) + 1) <- v)
    pairs;
  {
    name = w.W.name;
    mem_size = w.W.mem_size;
    input = { regs = w.W.reference.W.regs; mem };
    st_instrs = st.V.dyn_instrs;
    st_cycles = st.V.cycles;
    digest = V.memory_digest image;
    fuel = fuel_or_default fuel;
  }

(* A record's flat input, as the simulator takes it. *)
let input_of { regs; mem } =
  let rec pairs i acc =
    if i < 0 then acc else pairs (i - 2) ((mem.(i - 1), mem.(i)) :: acc)
  in
  { W.regs; mem = pairs (Array.length mem - 1) [] }

(* The reference stage: simulate the single-threaded original. It is
   the oracle the compiled cell is checked against, so a reference that
   deadlocks or runs out of fuel ends the request before the cache is
   probed (counting neither a hit nor a miss). *)
let reference_stage ?fuel (w : W.t) =
  let st, (image, _) =
    Obs.span ~cat:"stage" "req.simulate" (fun () ->
        V.measure_reference ?fuel w)
  in
  if st.V.deadlocked then
    raise (V.Deadlock (w.W.name ^ "/single: simulator deadlock"));
  if st.V.fuel_exhausted then raise (Timeout (w.W.name ^ "/single"));
  (st, image)

(* The cell stage every run ends in: simulate the compiled cell, check
   its final memory against [oracle], and render the report. [input] is
   built inside the simulate stage, where a record-served cell pays for
   rebuilding it. *)
let cell_stage ?fuel ~cache_status ~name ~input ~mem_size ~st ~oracle
    ~technique ~coco ~threads mtp =
  let st_instrs, st_cycles = st in
  let m =
    Obs.span ~cat:"stage" "req.simulate" (fun () ->
        V.measure_prog ?fuel ~oracle:(Some oracle) ~name ~input:(input ())
          ~mem_size ~technique ~coco ~n_threads:threads mtp)
  in
  if m.V.fuel_exhausted then raise (Timeout (cell_label name technique coco));
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s / %s%s / %d threads\n" name (V.technique_name technique)
    (if coco then "+COCO" else "")
    threads;
  pf "  single-threaded : %8d instrs %8d cycles\n" st_instrs st_cycles;
  pf "  multi-threaded  : %8d instrs %8d cycles\n" m.V.dyn_instrs m.V.cycles;
  pf "  communication   : %8d instrs (%.1f%%), %d memory syncs\n"
    m.V.comm_instrs
    (100.0 *. float_of_int m.V.comm_instrs /. float_of_int m.V.dyn_instrs)
    m.V.mem_syncs;
  pf "  speedup         : %.2fx\n"
    (float_of_int st_cycles /. float_of_int m.V.cycles);
  pf "  (memory state verified against the single-threaded run)\n";
  { out = Buffer.contents buf; err = ""; code = 0; cache_status }

(* A run from the parsed program: the reference stage, whose record
   goes to [remember], then one probe (compiling and storing on a miss),
   then the cell stage against the exact reference image. [cache] and
   [verify] are never given together: [run] has no cache, and
   [run_text] always verifies. *)
let run_workload ?cache ?fuel ?remember ?verify ~technique ~coco ~threads
    (w : W.t) =
  let status = ref "none" in
  guarded status @@ fun () ->
  let st, image = reference_stage ?fuel w in
  Option.iter (fun f -> f (reference_of ?fuel w st image)) remember;
  if cache <> None then status := "miss";
  let mtp =
    match lookup cache with
    | Some e ->
      status := "hit";
      e.Cache.mtp
    | None -> compile_run ?cache ?verify ~technique ~coco ~threads w
  in
  cell_stage ?fuel ~cache_status:!status ~name:w.W.name
    ~input:(fun () -> w.W.reference)
    ~mem_size:w.W.mem_size
    ~st:(st.V.dyn_instrs, st.V.cycles)
    ~oracle:(V.Image image) ~technique ~coco ~threads mtp

let run ?fuel ?verify ~technique ~coco ~threads w =
  run_workload ?fuel ?verify ~technique ~coco ~threads w

(* A run served from its cell's record: one probe, and the text is
   parsed only to compile a missing entry, stored without a second
   probe. The cell stage checks against the recorded digest. *)
let run_recorded ?cache ?fuel ~technique ~coco ~threads r text =
  let cell cache_status program =
    guarded (ref cache_status) @@ fun () ->
    cell_stage ?fuel ~cache_status ~name:r.name
      ~input:(fun () -> input_of r.input)
      ~mem_size:r.mem_size ~st:(r.st_instrs, r.st_cycles)
      ~oracle:(V.Image_digest r.digest) ~technique ~coco ~threads (program ())
  in
  match lookup cache with
  | Some e -> cell "hit" (fun () -> e.Cache.mtp)
  | None -> (
    let cache_status = if cache = None then "none" else "miss" in
    match parse_text ~cache_status text with
    | Error o -> o
    | Ok w ->
      cell cache_status (fun () ->
          compile_run ?cache ~technique ~coco ~threads w))

let run_text ?cache ?fuel ?reference ?remember ~technique ~coco ~threads text
    =
  match reference with
  | Some r when applies ?fuel r ->
    run_recorded ?cache ?fuel ~technique ~coco ~threads r text
  | _ -> (
    match parse_text ~cache_status:"none" text with
    | Error o -> o
    | Ok w ->
      run_workload ?cache ?fuel ?remember ~technique ~coco ~threads w)

(* ------------------------------ check ------------------------------ *)

let verified_outcome ~label ~threads ~cache_status (e : Cache.entry) =
  {
    out =
      Printf.sprintf "%s: verified (%d threads, %d queues, %d comm sites)\n"
        label threads e.Cache.mtp.Gmt_ir.Mtprog.n_queues e.Cache.comm_sites;
    err = "";
    code = 0;
    cache_status;
  }

(* The verdict renderer: validate [c], and report it verified, storing
   it when there is a cache, or report the validator's diagnostics. *)
let verdict ?cache ~cache_status (c : V.compiled) =
  let label = cell_label c.V.workload.W.name c.V.technique c.V.coco in
  match V.verify_compiled c with
  | [] ->
    verified_outcome ~label ~threads:c.V.n_threads ~cache_status
      (store cache c)
  | diags ->
    {
      out = "";
      err =
        Printf.sprintf
          "%s: translation validation FAILED (%d diagnostics)\n%s\n" label
          (List.length diags) (Verify.render diags);
      code = exit_verify;
      cache_status;
    }

(* A check whose lookup missed (or that has no cache): compile
   unverified, validate, and store only clean code. *)
let check_miss ?cache ~technique ~coco ~threads (w : W.t) =
  let cache_status = if cache = None then "none" else "miss" in
  guarded (ref cache_status) @@ fun () ->
  verdict ?cache ~cache_status
    (Obs.span ~cat:"stage" "req.compile" (fun () ->
         V.compile ~n_threads:threads ~coco ~verify:false technique w))

let check ~technique ~coco ~threads w =
  check_miss ~technique ~coco ~threads w

let check_compiled c =
  guarded (ref "none") (fun () -> verdict ~cache_status:"none" c)

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
    verified_outcome
      ~label:(cell_label e.Cache.w_name technique coco)
      ~threads ~cache_status:"hit" e
  | None -> (
    match
      parse_text ~cache_status:(if cache = None then "none" else "miss") text
    with
    | Error o -> o
    | Ok w -> check_miss ?cache ~technique ~coco ~threads w)

(* ------------------------------ sweep ------------------------------ *)

(* Each task partitions once for its thread count and builds both of
   its ±COCO cells from that partition; the analysis is shared, read
   only, by every task. *)
let sweep ?(jobs = 1) ?fuel ~max_threads (w : W.t) =
  guarded (ref "none") @@ fun () ->
  let st, image = reference_stage ?fuel w in
  let compile f = Obs.span ~cat:"stage" "req.compile" f in
  let an = compile (fun () -> V.analyze w) in
  let cell n () =
    let pt = compile (fun () -> V.partition ~n_threads:n V.Gremio an) in
    let comm coco =
      let c = compile (fun () -> V.codegen ~coco pt) in
      let m =
        Obs.span ~cat:"stage" "req.simulate" (fun () ->
            V.measure ?fuel ~expect:(image, st.V.dyn_instrs) c)
      in
      if m.V.fuel_exhausted then
        raise (Timeout (Printf.sprintf "%s/sweep@%d" w.W.name n));
      m.V.comm_instrs
    in
    let base = comm false in
    (n, base, comm true)
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
