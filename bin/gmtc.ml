(* gmtc — command-line driver for the GMT instruction-scheduling compiler.

     gmtc list                         show the benchmark suite
     gmtc show ks                      print a kernel's IR
     gmtc pdg ks                       print its program dependence graph
     gmtc compile ks -t gremio --coco  partition + generate thread code
     gmtc check ks -t dswp --coco      translation-validate the thread code
     gmtc run prog.gmt -t dswp --coco  compile, verify, simulate, report
     gmtc export ks                    print a kernel as textual GMT-IR
     gmtc lint prog.gmt                static diagnostics (GL001..GL006)
     gmtc sweep ks --threads 4         communication across thread counts
     gmtc fuzz --seed 7 --count 20     differential-fuzz the pipeline
     gmtc fuzz --lint --count 200      lint soundness vs checking interp
     gmtc serve --socket S --jobs 4    run the gmtd compile daemon
     gmtc serve --listen 0.0.0.0:7070  ... also on TCP (the farm transport)
     gmtc remote run ks -t gremio      compile via the daemon (or fall
                                       back to local when none listens)
     gmtc remote run ks --socket a=h:1,b=h:2
                                       route by cache fingerprint over a
                                       consistent-hash ring of shards
     gmtc remote stats --socket ...    per-shard farm health

   Anywhere a benchmark name is accepted, a path to a textual GMT-IR
   file ([*.gmt]) or [-] (stdin) works too.

   Exit codes: 1 deadlock, 2 parse error in a .gmt file, 3 unknown
   benchmark/technique name, 4 translation validation rejected the
   generated code, 5 the --fuel budget ran out mid-simulation, 6 the
   daemon refused the request as over its bound, 7 lint reported
   findings. *)

open Cmdliner
module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Suite = Gmt_workloads.Suite
module Verify = Gmt_verify.Verify
module Text = Gmt_frontend.Text
module Fuzz = Gmt_frontend.Fuzz
module Render = Gmt_service.Render
module Server = Gmt_service.Server
module Client = Gmt_service.Client
module Farm = Gmt_farm.Farm
module FarmRouter = Gmt_farm.Router
module Shard = Gmt_farm.Shard
open Gmt_ir

(* Unknown names and malformed input files are user input errors, not
   usage errors: one line on stderr and a distinct exit code scripts can
   test for, instead of Cmdliner's multi-line usage dump and generic
   124. *)
let parse_error_exit = 2
let unknown_name_exit = 3

(* [-], an explicit path, or a *.gmt name is a file to parse; anything
   else is looked up in the suite. *)
let is_file_input name =
  name = "-"
  || Filename.check_suffix name ".gmt"
  || String.contains name '/'

let resolve_workload name =
  if is_file_input name then
    match Text.load name with
    | Ok w -> w
    | Error e ->
      Printf.eprintf "gmtc: %s\n" (Text.render_error e);
      exit parse_error_exit
  else
    match Suite.lookup name with
    | Ok w -> w
    | Error msg ->
      Printf.eprintf "gmtc: %s\n" msg;
      exit unknown_name_exit

let resolve_technique s =
  match Render.technique_of_name s with
  | Some t -> t
  | None ->
    Printf.eprintf "gmtc: unknown technique %S (known: gremio, dswp)\n" s;
    exit unknown_name_exit

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK"
        ~doc:
          "Benchmark kernel name (see $(b,gmtc list)), a textual GMT-IR \
           file ($(b,*.gmt)), or $(b,-) to read GMT-IR from stdin.")

let technique_arg =
  Arg.(
    value & opt string "gremio"
    & info [ "t"; "technique" ] ~docv:"TECH"
        ~doc:"Partitioner: $(b,gremio) or $(b,dswp).")

let coco_arg =
  Arg.(value & flag & info [ "coco" ] ~doc:"Optimize communication with COCO.")

let no_verify_arg =
  Arg.(
    value & flag
    & info [ "no-verify" ]
        ~doc:
          "Skip the gmt_verify translation validator normally run on the \
           generated thread code.")

let pos_int_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let threads_arg =
  Arg.(
    value & opt pos_int_conv 2
    & info [ "j"; "threads" ] ~docv:"N"
        ~doc:"Number of threads to extract. Must be positive.")

let jobs_arg =
  Arg.(
    value
    & opt (some pos_int_conv) None
    & info [ "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "GMT_JOBS")
        ~doc:
          "Host domains used to run independent measurements concurrently \
           (results are byte-identical for any value; defaults to the \
           recommended domain count). Must be positive.")

let resolve_jobs = function
  | Some j -> j
  | None -> Gmt_parallel.Pool.default_jobs ()

let fuel_opt_arg =
  Arg.(
    value
    & opt (some pos_int_conv) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Cycle budget of each simulation: the single-threaded \
           reference, then each compiled cell ($(b,run)'s one, or \
           $(b,sweep)'s two per thread count). Exhausting it aborts the \
           measurement with exit code 5 instead of running forever.")

(* Print exactly what a Render outcome says and return its exit code —
   the one funnel both local and remote execution drain through. *)
let print_outcome (o : Render.outcome) =
  print_string o.Render.out;
  prerr_string o.Render.err;
  flush stdout;
  flush stderr;
  o.Render.code

let exit_with code = if code <> 0 then exit code
let finish_outcome o = exit_with (print_outcome o)

(* --------------------------- observability --------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "GMT_TRACE")
        ~doc:
          "Record every pipeline pass and write a Chrome trace_event JSON \
           to $(docv) (open in Perfetto or chrome://tracing).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the structured metrics registry (PDG/partition/COCO \
           counters, per-core stall attribution) as JSON to $(docv).")

(* Enable the requested sinks, run [f] for its exit code, write the
   trace and metrics files and only then exit: a run that failed (a
   deadlock, a fuel timeout, a busy daemon) still leaves its files to
   inspect. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Gmt_obs.Obs.enable_tracing ();
  if metrics <> None then Gmt_obs.Obs.enable_metrics ();
  let code = f () in
  Option.iter Gmt_obs.Obs.write_trace trace;
  Option.iter Gmt_obs.Obs.write_metrics metrics;
  exit_with code

(* ------------------------------ list ------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-18s %-28s %s\n" "name" "suite" "function" "exec%";
    List.iter
      (fun (w : W.t) ->
        Printf.printf "%-12s %-18s %-28s %d\n" w.W.name w.W.suite w.W.func_name
          w.W.exec_pct)
      (Suite.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite (paper Figure 6(b)).")
    Term.(const run $ const ())

(* ------------------------------ show ------------------------------ *)

let show_cmd =
  let run bench =
    let w = resolve_workload bench in
    Format.printf "%a@." Printer.pp_func w.W.func;
    Printf.printf "\nregions:";
    Array.iteri (fun i n -> Printf.printf " m%d=%s" i n) w.W.func.Func.regions;
    print_newline ()
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a kernel's IR.")
    Term.(const run $ bench_arg)

(* ------------------------------ pdg ------------------------------ *)

let pdg_cmd =
  let run bench =
    let w = resolve_workload bench in
    let pdg = Gmt_pdg.Pdg.build w.W.func in
    Format.printf "%a@." Gmt_pdg.Pdg.pp pdg
  in
  Cmd.v (Cmd.info "pdg" ~doc:"Print a kernel's program dependence graph.")
    Term.(const run $ bench_arg)

(* ---------------------------- compile ---------------------------- *)

let compile_cmd =
  let run bench tech coco threads no_verify =
    let w = resolve_workload bench in
    let tech = resolve_technique tech in
    let c =
      V.compile ~n_threads:threads ~coco ~verify:(not no_verify) tech w
    in
    Format.printf "%a@.@." Gmt_sched.Partition.pp c.V.partition;
    Printf.printf "communication plan (%d transfers):\n"
      (List.length c.V.plan.Gmt_mtcg.Mtcg.comms);
    List.iter
      (fun cm -> Format.printf "  %a@." Gmt_mtcg.Comm.pp cm)
      c.V.plan.Gmt_mtcg.Mtcg.comms;
    Format.printf "@.%a@." Printer.pp_mtprog c.V.mtp
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Partition a kernel and print the generated thread code.")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg
      $ no_verify_arg)

(* ----------------------------- check ----------------------------- *)

(* Shared by check and fuzz: --inject seeds a known miscompile into the
   generated thread code so the validator's rejection path is testable. *)
let inject_conv =
  let parse s =
    match Fuzz.mutation_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown mutation %S (known: drop-produce, \
                            swap-branch)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Fuzz.mutation_name m))

let inject_arg =
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"MUTATION"
        ~doc:
          "Test flag: seed a miscompile ($(b,drop-produce) or \
           $(b,swap-branch)) into the generated thread code before \
           checking, to demonstrate the validator catches it.")

let apply_inject inject (c : V.compiled) =
  match inject with
  | None -> c
  | Some m -> (
    match Fuzz.apply_mutation m c.V.mtp with
    | Some mtp -> { c with V.mtp }
    | None ->
      Printf.eprintf "gmtc: mutation %s not applicable (no such instruction \
                      in the generated code)\n" (Fuzz.mutation_name m);
      exit 1)

let check_cmd =
  let run bench tech coco threads json inject =
    let w = resolve_workload bench in
    let tech = resolve_technique tech in
    if json || inject <> None then begin
      (* The JSON report needs the raw diagnostics, and the
         seeded-miscompile drill mutates the code before Render's
         verdict; the plain path compiles inside Render so its bytes
         stay identical to the daemon's. *)
      let c = V.compile ~n_threads:threads ~coco ~verify:false tech w in
      let c = apply_inject inject c in
      if json then begin
        let diags = V.verify_compiled c in
        let label =
          Printf.sprintf "%s/%s" w.W.name (V.cell_name (V.Mt (tech, coco)))
        in
        print_endline (Verify.to_json ~label ~name:w.W.func_name diags);
        if diags <> [] then exit Render.exit_verify
      end
      else finish_outcome (Render.check_compiled c)
    end
    else finish_outcome (Render.check ~technique:tech ~coco ~threads w)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the machine-readable gmt-verify/1 JSON report on stdout \
             instead of human-readable diagnostics.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Translation-validate the generated thread code against the \
          source PDG (dependence coverage, queue protocol, races, \
          def-before-use); exit 4 if any check rejects.")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg $ json_arg
      $ inject_arg)

(* ------------------------------ run ------------------------------ *)

let run_cmd =
  let run bench tech coco threads no_verify fuel trace metrics =
    let w = resolve_workload bench in
    let technique = resolve_technique tech in
    with_obs ~trace ~metrics @@ fun () ->
    print_outcome
      (Render.run ?fuel ~verify:(not no_verify) ~technique ~coco ~threads w)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile a kernel, verify the generated code and report simulated \
          performance.")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg
      $ no_verify_arg $ fuel_opt_arg $ trace_arg $ metrics_arg)

(* ------------------------------ dot ------------------------------ *)

let dot_cmd =
  let run bench tech coco threads no_verify mt part =
    let w = resolve_workload bench in
    let tech = resolve_technique tech in
    let verify = not no_verify in
    if mt then begin
      let c = V.compile ~n_threads:threads ~coco ~verify tech w in
      Format.printf "%a" Dot.mtprog c.V.mtp
    end
    else if part then begin
      let c = V.compile ~n_threads:threads ~coco ~verify tech w in
      let p = Gmt_sched.Partition.thread_of_opt c.V.partition in
      print_string (Dot.cfg_to_string ~partition:p c.V.workload.W.func)
    end
    else print_string (Dot.cfg_to_string w.W.func)
  in
  let mt_arg =
    Arg.(
      value & flag
      & info [ "mt" ]
          ~doc:"Emit the partitioned multi-threaded CFGs instead of the \
                original.")
  in
  let partition_arg =
    Arg.(
      value & flag
      & info [ "partition" ]
          ~doc:"Color each instruction of the original CFG by the thread \
                the partitioner assigned it to.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz rendering of a kernel's CFG(s).")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg
      $ no_verify_arg $ mt_arg $ partition_arg)

(* ----------------------------- sweep ----------------------------- *)

let sweep_cmd =
  let run bench max_threads jobs fuel trace metrics =
    let w = resolve_workload bench in
    let jobs = resolve_jobs jobs in
    with_obs ~trace ~metrics @@ fun () ->
    print_outcome (Render.sweep ~jobs ?fuel ~max_threads w)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep thread counts and report communication.")
    Term.(
      const run $ bench_arg $ threads_arg $ jobs_arg $ fuel_opt_arg
      $ trace_arg $ metrics_arg)

(* ----------------------------- export ---------------------------- *)

let export_cmd =
  let run bench all out =
    (* Atomic (temp + rename): an interrupted export never leaves a
       truncated .gmt behind for the corpus check to trip over. *)
    let write path w = Gmt_cache.Diskio.write_atomic path (Text.print w) in
    if all then begin
      let dir = Option.value out ~default:"." in
      List.iter
        (fun (w : W.t) -> write (Filename.concat dir (w.W.name ^ ".gmt")) w)
        (Suite.all ());
      Printf.printf "exported %d workloads to %s\n"
        (List.length (Suite.all ())) dir
    end
    else
      match bench with
      | None ->
        prerr_endline "gmtc: export needs a BENCHMARK or --all";
        exit unknown_name_exit
      | Some bench -> (
        let w = resolve_workload bench in
        match out with
        | None -> print_string (Text.print w)
        | Some path -> write path w)
  in
  let bench_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmark kernel name, $(b,*.gmt) file, or $(b,-).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Export every suite workload (one file each).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:
            "Output file (or directory with $(b,--all)); defaults to \
             stdout (or the current directory with $(b,--all)).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print a workload in the canonical textual GMT-IR v1 format \
          (re-parseable by every other command).")
    Term.(const run $ bench_opt_arg $ all_arg $ out_arg)

(* ------------------------------ lint ------------------------------ *)

(* Findings present is its own exit code so scripts (and the corpus
   gate) can tell "program has diagnostics" from parse errors (2) and
   crashes (1). *)
let lint_exit = 7

module Lint = Gmt_analysis.Lint
module Json = Gmt_obs.Json

(* Like [resolve_workload], but also recover instruction positions:
   straight from the parser for file inputs, and by re-parsing the
   canonical export for suite kernels — the same text [gmtc export]
   prints, so reported line:col point into it. *)
let resolve_workload_pos name =
  if is_file_input name then
    match Text.load_pos name with
    | Ok wp -> wp
    | Error e ->
      Printf.eprintf "gmtc: %s\n" (Text.render_error e);
      exit parse_error_exit
  else
    match Suite.lookup name with
    | Ok w -> (
      match Text.parse_pos ~file:(name ^ ".gmt") (Text.print w) with
      | Ok (_, pos) -> (w, pos)
      | Error _ -> (w, fun _ -> None))
    | Error msg ->
      Printf.eprintf "gmtc: %s\n" msg;
      exit unknown_name_exit

let lint_cmd =
  let run inputs json jobs =
    let jobs = resolve_jobs jobs in
    (* Resolve sequentially (I/O and error exits), analyze in parallel;
       [run_list] preserves input order, so the report is byte-identical
       for any --jobs. *)
    let resolved =
      List.map (fun input -> (input, resolve_workload_pos input)) inputs
    in
    let reports =
      Gmt_parallel.Pool.run_list ~jobs
        (List.map
           (fun (input, ((w : W.t), pos)) () ->
             (input, w, Lint.run ~mem_size:w.W.mem_size ~pos w.W.func))
           resolved)
    in
    let total =
      List.fold_left (fun n (_, _, fs) -> n + List.length fs) 0 reports
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "gmt-lint/1");
                ("ok", Json.Bool (total = 0));
                ("findings", Json.Num (float_of_int total));
                ( "programs",
                  Json.Arr
                    (List.map
                       (fun (input, (w : W.t), fs) ->
                         Json.Obj
                           [
                             ("input", Json.Str input);
                             ("function", Json.Str w.W.func_name);
                             ( "findings",
                               Json.Arr
                                 (List.map
                                    (fun (f : Lint.finding) ->
                                      Json.Obj
                                        [
                                          ("code", Json.Str f.Lint.code);
                                          ( "id",
                                            Json.Num
                                              (float_of_int f.Lint.iid) );
                                          ( "line",
                                            Json.Num
                                              (float_of_int f.Lint.line) );
                                          ( "col",
                                            Json.Num (float_of_int f.Lint.col)
                                          );
                                          ("message", Json.Str f.Lint.msg);
                                        ])
                                    fs) );
                           ])
                       reports) );
              ]))
    else
      List.iter
        (fun (input, _, fs) ->
          if fs = [] then Printf.printf "%s: clean\n" input
          else
            List.iter
              (fun f -> Printf.printf "%s:%s\n" input (Lint.render f))
              fs)
        reports;
    if total > 0 then exit lint_exit
  in
  let inputs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"INPUT"
          ~doc:
            "Programs to lint: benchmark kernel names, $(b,*.gmt) files, \
             or $(b,-) for stdin.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the machine-readable gmt-lint/1 JSON report on stdout \
             instead of one finding per line.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check programs with the abstract-interpretation \
          framework: uninitialized reads (GL001), unreachable blocks \
          (GL002), dead stores (GL003), provably out-of-bounds accesses \
          (GL004), produce/consume imbalance (GL005) and stray \
          communication (GL006). Exit 7 when any finding is reported; \
          findings are sorted by (line, col, code) and independent of \
          $(b,--jobs).")
    Term.(const run $ inputs_arg $ json_arg $ jobs_arg)

(* ------------------------------ fuzz ------------------------------ *)

let fuzz_cmd =
  let run files seed count lint inject fuel out_dir jobs =
    let jobs = resolve_jobs jobs in
    if lint then begin
      (* Lint soundness mode: static findings vs the checking
         interpreter, see Fuzz.lint_soundness. *)
      let inject =
        Option.map
          (fun s ->
            match Fuzz.lint_mutation_of_string s with
            | Some m -> m
            | None ->
              Printf.eprintf
                "gmtc: unknown lint mutation %S (known: drop-def, \
                 oob-base, stray-produce)\n"
                s;
              exit unknown_name_exit)
          inject
      in
      let report =
        if files <> [] then
          Fuzz.lint_workloads ?inject ~fuel ~jobs
            (List.map (fun f -> (f, resolve_workload f)) files)
        else
          Fuzz.lint_seeds ?inject ~fuel ~jobs
            ~seeds:(List.init count (fun i -> seed + i))
            ()
      in
      print_endline (Fuzz.render_lint_report report);
      if report.Fuzz.l_problems <> [] then exit 1
    end
    else begin
      let inject =
        Option.map
          (fun s ->
            match Fuzz.mutation_of_string s with
            | Some m -> m
            | None ->
              Printf.eprintf
                "gmtc: unknown mutation %S (known: drop-produce, \
                 swap-branch)\n"
                s;
              exit unknown_name_exit)
          inject
      in
      let report =
        if files <> [] then
          Fuzz.fuzz_workloads ?mutate:inject ~fuel ~out_dir ~jobs
            (List.map (fun f -> (f, resolve_workload f)) files)
        else
          Fuzz.fuzz_seeds ?mutate:inject ~fuel ~out_dir ~jobs
            ~seeds:(List.init count (fun i -> seed + i))
            ()
      in
      print_endline (Fuzz.render_report report);
      (* Without an injected mutation, any finding is a real disagreement
         between the validator and the interpreter. With one, the harness
         must catch it: a mutated program that sails through is the
         failure. *)
      let failed =
        match inject with
        | None -> report.Fuzz.findings <> []
        | Some _ -> report.Fuzz.tested > 0 && report.Fuzz.findings = []
      in
      if failed then exit 1
    end
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"INPUT"
          ~doc:
            "Workloads to cross-check (benchmark names or $(b,*.gmt) \
             files); when omitted, programs are generated from \
             $(b,--seed).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"First seed for generated programs (deterministic).")
  in
  let count_arg =
    Arg.(
      value & opt int 10
      & info [ "count" ] ~docv:"K" ~doc:"Number of consecutive seeds to run.")
  in
  let fuel_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:"Interpreter step budget per run.")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized $(b,.gmt) counterexample repros.")
  in
  let lint_flag_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Lint soundness mode: run each program under the checking \
             interpreter and assert every trap is covered by a lint \
             finding, every computed address lies in its abstract \
             interval, and statically-disjoint access pairs never share \
             a dynamic address. With $(b,--inject) ($(b,drop-def), \
             $(b,oob-base), $(b,stray-produce)), instead seed that bug \
             class and assert the matching lint code fires.")
  in
  let fuzz_inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"MUTATION"
          ~doc:
            "Seed a known bug and assert the harness catches it: \
             $(b,drop-produce) or $(b,swap-branch) into the generated \
             thread code, or (with $(b,--lint)) $(b,drop-def), \
             $(b,oob-base) or $(b,stray-produce) into the source.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: compile every technique cell \
          (GREMIO/DSWP x ±COCO), cross-check the translation validator's \
          verdict against MT-interpreter equivalence with the \
          single-threaded oracle, and write shrunk $(b,.gmt) repros for \
          any disagreement. With $(b,--lint), check the static linter's \
          soundness against the checking interpreter instead.")
    Term.(
      const run $ files_arg $ seed_arg $ count_arg $ lint_flag_arg
      $ fuzz_inject_arg $ fuel_arg $ out_dir_arg $ jobs_arg)

(* ------------------------------ serve ----------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/gmtd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "GMTD_SOCKET")
        ~doc:"Unix-domain socket the daemon listens on.")

(* HOST:PORT for --listen; port 0 is allowed (ephemeral, printed at
   startup so harnesses can discover it). *)
let parse_listen s =
  let bad () =
    Printf.eprintf "gmtc: bad --listen %S (want HOST:PORT)\n" s;
    exit unknown_name_exit
  in
  match String.rindex_opt s ':' with
  | Some i when i > 0 -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    with
    | Some p when p >= 0 && p < 65536 -> (String.sub s 0 i, p)
    | _ -> bad ())
  | _ -> bad ()

let serve_cmd =
  let run socket listen self peers mem_capacity jobs cache_dir queue_bound
      fuel_cap =
    let jobs = resolve_jobs jobs in
    (* Degraded states (evictions, corrupt recoveries, busy replies)
       surface in the daemon's log the moment they happen, not only in
       post-mortem stats queries. *)
    Gmt_telemetry.Events.set_sink (Some prerr_endline);
    let cfg =
      {
        (Server.default_config ~socket) with
        Server.tcp = Option.map parse_listen listen;
        jobs;
        cache_dir;
        mem_capacity;
        queue_bound;
        fuel_cap;
      }
    in
    let peer_list =
      List.map
        (fun spec ->
          let s = Farm.shard_of_spec spec in
          (s.FarmRouter.name, s.FarmRouter.endpoint))
        peers
    in
    (* With --peers this daemon is a farm shard: same server, plus the
       cache-warming replication pusher aimed at its ring successor. *)
    let tcp_port, stop_server =
      if peer_list = [] then begin
        let srv = Server.start cfg in
        ((fun () -> Server.tcp_port srv), fun () -> Server.stop srv)
      end
      else begin
        let self =
          match self with
          | Some s -> s
          | None ->
            Printf.eprintf "gmtc: --peers requires --self NAME\n";
            exit unknown_name_exit
        in
        if not (List.mem_assoc self peer_list) then begin
          Printf.eprintf "gmtc: --self %S is not among --peers\n" self;
          exit unknown_name_exit
        end;
        let sh = Shard.start { Shard.server = cfg; self; peers = peer_list } in
        ( (fun () -> Server.tcp_port (Shard.server sh)),
          fun () -> Shard.stop sh )
      end
    in
    let stop = Atomic.make false in
    let ask_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle ask_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle ask_stop);
    Printf.printf "gmtd: listening on %s (%d jobs, cache %s)\n%!" socket jobs
      (Option.value cache_dir ~default:"in-memory");
    (* The bound TCP port on its own line: with --listen host:0 this is
       the only way a harness learns the kernel's pick. *)
    (match tcp_port () with
    | Some p -> Printf.printf "gmtd: tcp port %d\n%!" p
    | None -> ());
    (* Park until a signal asks for the graceful drain. *)
    while not (Atomic.get stop) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.printf "gmtd: draining\n%!";
    stop_server ();
    Printf.printf "gmtd: stopped\n%!"
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the on-disk artifact store (created if missing); \
             omitted = in-memory cache only.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt pos_int_conv 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Maximum in-flight requests before newcomers get an explicit \
             busy reply (exit 6 on the client). Must be positive.")
  in
  let fuel_cap_arg =
    Arg.(
      value
      & opt (some pos_int_conv) None
      & info [ "fuel-cap" ] ~docv:"STEPS"
          ~doc:
            "Server-side ceiling on per-request simulation fuel; requests \
             asking for more are clamped.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Also listen on TCP — the farm transport, same gmtd/2 frame \
             protocol as the Unix socket. Port $(b,0) binds an ephemeral \
             port, printed at startup as $(b,gmtd: tcp port N).")
  in
  let self_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "self" ] ~docv:"NAME"
          ~doc:
            "This shard's ring name (required with $(b,--peers); must be \
             one of them).")
  in
  let peers_arg =
    Arg.(
      value & opt (list string) []
      & info [ "peers" ] ~docv:"NAME=ENDPOINT,..."
          ~doc:
            "Every farm member (this one included) as NAME=ENDPOINT; \
             enables cache-warming replication: each compile-served miss \
             is pushed to the key's ring successor.")
  in
  let mem_capacity_arg =
    Arg.(
      value & opt pos_int_conv 128
      & info [ "mem-capacity" ] ~docv:"N"
          ~doc:
            "In-memory LRU bound of the artifact cache (entries). Must be \
             positive.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run gmtd: a concurrent compile service with a content-addressed \
          artifact cache, answering $(b,gmtc remote) clients over a \
          Unix-domain socket — and, with $(b,--listen), TCP farm clients \
          on the same frame protocol. SIGINT/SIGTERM drain gracefully.")
    Term.(
      const run $ socket_arg $ listen_arg $ self_arg $ peers_arg
      $ mem_capacity_arg $ jobs_arg $ cache_dir_arg $ queue_bound_arg
      $ fuel_cap_arg)

(* ----------------------------- remote ----------------------------- *)

(* The client resolves names/files locally (same exits 2/3 as offline),
   ships canonical GMT-IR text, and falls back to running the identical
   Render code in-process when no daemon answers — so remote output is
   byte-identical to offline output, daemon or not. The fallback is
   loud: a one-line stderr warning plus a [client.fallback] event,
   never a silent mode switch.

   [--socket] lists one endpoint or several, and every request goes
   through [Farm.request]: it routes to the shard owning the request's
   cache fingerprint on a consistent-hash ring and fails over along the
   ring when a shard is down. With one endpoint the ring is that one
   daemon.

   With [--trace], the request carries a fresh trace id; the daemon
   ships its per-request stage spans back and [Client.request] re-records
   them here, so the written file holds the client's [remote.<op>] span
   and the server's decode→…→encode children stitched into one Perfetto
   timeline. *)

let endpoints_arg =
  Arg.(
    value
    & opt (list string) [ "/tmp/gmtd.sock" ]
    & info [ "socket" ] ~docv:"[NAME=]ENDPOINT,..."
        ~env:(Cmd.Env.info "GMTD_SOCKET")
        ~doc:
          "The gmtd daemon(s) to use, comma-separated. Each endpoint is a \
           Unix socket path or $(b,host:port), optionally named \
           $(b,NAME=ENDPOINT); a bare endpoint names itself, and ring \
           placement depends only on the names. One endpoint is a single \
           daemon; several form a consistent-hash farm.")

let remote_finish ~specs ~key ~trace ~op ~fallback req =
  with_obs ~trace ~metrics:None @@ fun () ->
  let req =
    if trace = None then req
    else
      Client.traced ~parent_span:("remote." ^ op)
        ~trace_id:(Gmt_telemetry.Trace.genid ())
        req
  in
  let reply =
    Gmt_obs.Obs.span ~cat:"client" ("remote." ^ op) (fun () ->
        Farm.request (Farm.of_specs specs) ~key req)
  in
  match reply with
  | Ok (o, _shard) -> print_outcome o
  | Error `No_shard ->
    prerr_string (Client.warn_fallback ~socket:(String.concat "," specs) ());
    flush stderr;
    print_outcome (fallback ())
  | Error (`Busy msg) ->
    prerr_string msg;
    flush stderr;
    Render.exit_busy
  | Error (`Protocol msg) ->
    Printf.eprintf "gmtc: remote: %s\n%!" msg;
    1

(* run/check route by the cache fingerprint, so a cell's artifact and
   its shard coincide. An unknown technique has no fingerprint: it
   routes by program digest, and whichever side answers reports it with
   exit 3, as offline gmtc does. *)
let route_key tech ~coco ~threads ~gmt =
  match Render.technique_of_name tech with
  | Some technique -> Farm.compile_key ~technique ~coco ~threads ~canonical:gmt
  | None -> Farm.sweep_key ~canonical:gmt

let remote_run_cmd =
  let run bench tech coco threads fuel specs trace =
    let w = resolve_workload bench in
    let gmt = Text.print w in
    remote_finish ~specs
      ~key:(route_key tech ~coco ~threads ~gmt)
      ~trace ~op:"run"
      ~fallback:(fun () ->
        let technique = resolve_technique tech in
        Render.run ?fuel ~technique ~coco ~threads w)
      (Client.run_request ~gmt ~technique:tech ~coco ~threads ?fuel ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Like $(b,gmtc run), but served by gmtd when a daemon answers \
          (local fallback otherwise). With $(b,--trace), the daemon's \
          per-stage spans are stitched into the written trace.")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg
      $ fuel_opt_arg $ endpoints_arg $ trace_arg)

let remote_check_cmd =
  let run bench tech coco threads specs trace =
    let w = resolve_workload bench in
    let gmt = Text.print w in
    remote_finish ~specs
      ~key:(route_key tech ~coco ~threads ~gmt)
      ~trace ~op:"check"
      ~fallback:(fun () ->
        let technique = resolve_technique tech in
        Render.check ~technique ~coco ~threads w)
      (Client.check_request ~gmt ~technique:tech ~coco ~threads ())
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Like $(b,gmtc check), served by gmtd.")
    Term.(
      const run $ bench_arg $ technique_arg $ coco_arg $ threads_arg
      $ endpoints_arg $ trace_arg)

let remote_sweep_cmd =
  let run bench max_threads fuel specs trace =
    let w = resolve_workload bench in
    let gmt = Text.print w in
    (* A sweep touches one fingerprint per thread count; routing by the
       program digest warms one shard with all of them. *)
    remote_finish ~specs ~key:(Farm.sweep_key ~canonical:gmt) ~trace
      ~op:"sweep"
      ~fallback:(fun () -> Render.sweep ~jobs:1 ?fuel ~max_threads w)
      (Client.sweep_request ~gmt ~max_threads ?fuel ())
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Like $(b,gmtc sweep), served by gmtd.")
    Term.(
      const run $ bench_arg $ threads_arg $ fuel_opt_arg $ endpoints_arg
      $ trace_arg)

(* A failed round trip to one daemon: print why and return the exit
   code. *)
let rpc_failed ~socket = function
  | `No_daemon ->
    Printf.eprintf "gmtc: no daemon at %s\n" socket;
    1
  | `Busy msg ->
    prerr_string msg;
    Render.exit_busy
  | `Protocol msg ->
    Printf.eprintf "gmtc: remote: %s\n" msg;
    1

let remote_ping_cmd =
  let run specs =
    (* One line per endpoint; a failure exits with the first failing
       code once every endpoint has been tried. *)
    let code =
      List.fold_left
        (fun code ((s : FarmRouter.shard), r) ->
          let socket = s.FarmRouter.endpoint in
          match r with
          | Ok version ->
            Printf.printf "gmtd %s at %s\n" version socket;
            code
          | Error e ->
            let c = rpc_failed ~socket e in
            if code = 0 then c else code)
        0
        (Farm.ping (Farm.of_specs specs))
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:"Report the protocol version of each listening gmtd.")
    Term.(const run $ endpoints_arg)

(* ------------------------- stats rendering ------------------------- *)

let jmember k j = Json.member k j

let jnum k j =
  match jmember k j with Some (Json.Num f) -> f | _ -> 0.0

let jint k j = int_of_float (jnum k j)
let jstr k j = match jmember k j with Some (Json.Str s) -> s | _ -> ""

(* Human-readable rendering of a gmtd-stats/3 frame: the cache and
   request counters (evictions and corrupt-entry recoveries included),
   last-minute windows, per-op latency percentiles, per-stage means, and
   the tail of the structured event log. *)
let render_stats ~socket j =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "gmtd %s at %s  up %.0fs  jobs %d  in-flight %d\n" (jstr "version" j)
    socket (jnum "uptime_s" j) (jint "jobs" j) (jint "in_flight" j);
  (match jmember "cache" j with
  | Some c ->
    let hits = jint "hits" c and misses = jint "misses" c in
    let rate =
      if hits + misses = 0 then 0.0
      else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
    in
    pf
      "cache     hits %d  misses %d  stores %d  evictions %d  corrupt %d  \
       hit-rate %.1f%%\n"
      hits misses (jint "stores" c) (jint "evictions" c) (jint "corrupt" c)
      rate
  | None -> ());
  (match jmember "pool" j with
  | Some p ->
    pf "pool      workers %d  tasks %d  parks %d\n" (jint "workers" p)
      (jint "tasks_run" p) (jint "parks" p)
  | None -> ());
  (match jmember "telemetry" j with
  | Some (Json.Obj _ as tele) ->
    (match jmember "counters" tele with
    | Some c ->
      pf
        "requests  total %d  errors %d  busy %d  fuel-timeouts %d  traced %d  \
         reused %d\n"
        (jint "req.total" c) (jint "req.errors" c) (jint "req.busy" c)
        (jint "req.fuel_timeouts" c) (jint "req.traced" c)
        (jint "req.reference.reused" c)
    | None -> ());
    (match jmember "windows" tele with
    | Some w ->
      let total name =
        match jmember name w with Some o -> jint "total" o | None -> 0
      in
      pf
        "last-60s  hits %d  misses %d  busy %d  fuel-timeouts %d  \
         in-flight-peak %d\n"
        (total "win.cache.hits") (total "win.cache.misses") (total "win.busy")
        (total "win.fuel_timeouts")
        (total "win.in_flight.peak")
    | None -> ());
    (match jmember "histograms" tele with
    | Some (Json.Obj hs) ->
      List.iter
        (fun (name, h) ->
          match String.index_opt name '.' with
          | Some i when String.sub name 0 i = "latency" && jint "count" h > 0
            ->
            pf
              "latency   %-6s p50 %6dus  p90 %6dus  p99 %6dus  (n=%d)\n"
              (String.sub name (i + 1) (String.length name - i - 1))
              (jint "p50" h) (jint "p90" h) (jint "p99" h) (jint "count" h)
          | _ -> ())
        hs;
      List.iter
        (fun (name, h) ->
          match String.index_opt name '.' with
          | Some i when String.sub name 0 i = "stage" && jint "count" h > 0 ->
            pf "stage     %-18s mean %8.0fus  (n=%d)\n"
              (String.sub name (i + 1) (String.length name - i - 1))
              (jnum "mean" h) (jint "count" h)
          | _ -> ())
        hs
    | _ -> ())
  | _ -> ());
  (match jmember "events" j with
  | Some (Json.Arr lines) when lines <> [] ->
    pf "events    (most recent last)\n";
    let n = List.length lines in
    List.iteri
      (fun i l ->
        match l with
        | Json.Str s when i >= n - 5 -> pf "  %s\n" s
        | _ -> ())
      lines
  | _ -> ());
  Buffer.contents buf

(* A stats-frame error as the farm view prints it. *)
let shard_error = function
  | `No_daemon -> "down"
  | `Busy _ -> "busy"
  | `Protocol msg -> msg

(* One line per shard plus a farm aggregate; data straight out of each
   shard's stats frame (cache counters + telemetry counters). *)
let render_farm_stats results =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let up = ref 0 in
  let agg_req = ref 0 and agg_hits = ref 0 and agg_misses = ref 0 in
  List.iter
    (fun ((s : FarmRouter.shard), r) ->
      match r with
      | Error e ->
        pf "shard %-10s %-24s DOWN (%s)\n" s.FarmRouter.name
          s.FarmRouter.endpoint (shard_error e)
      | Ok j ->
        incr up;
        let hits, misses =
          match Json.member "cache" j with
          | Some c -> (jint "hits" c, jint "misses" c)
          | None -> (0, 0)
        in
        let cnt k =
          match Json.member "telemetry" j with
          | Some (Json.Obj _ as tele) -> (
            match Json.member "counters" tele with
            | Some c -> jint k c
            | None -> 0)
          | _ -> 0
        in
        let req = cnt "req.total" in
        agg_req := !agg_req + req;
        agg_hits := !agg_hits + hits;
        agg_misses := !agg_misses + misses;
        let rate h m =
          if h + m = 0 then 0.0
          else 100.0 *. float_of_int h /. float_of_int (h + m)
        in
        pf
          "shard %-10s %-24s up %5.0fs  in-flight %d  req %d  hit-rate \
           %5.1f%%  sf lead/wait %d/%d  repl push/ingest %d/%d\n"
          s.FarmRouter.name s.FarmRouter.endpoint (jnum "uptime_s" j)
          (jint "in_flight" j) req (rate hits misses)
          (cnt "farm.singleflight.leads")
          (cnt "farm.singleflight.waits")
          (cnt "farm.replication.pushed")
          (cnt "farm.replication.ingested"))
    results;
  let n = List.length results in
  let agg_rate =
    if !agg_hits + !agg_misses = 0 then 0.0
    else
      100.0 *. float_of_int !agg_hits /. float_of_int (!agg_hits + !agg_misses)
  in
  pf "farm      shards %d (%d up)  req %d  hits %d  misses %d  hit-rate %.1f%%\n"
    n !up !agg_req !agg_hits !agg_misses agg_rate;
  Buffer.contents buf

(* One endpoint is the single-daemon panel, and a failed round trip
   exits; several are the per-shard farm view, where a shard that does
   not answer is a DOWN line. *)
let stats_view specs =
  match Farm.stats (Farm.of_specs specs) with
  | [ (s, r) ] -> (
    let socket = s.FarmRouter.endpoint in
    match r with
    | Ok j -> `Daemon (socket, j)
    | Error e -> exit (rpc_failed ~socket e))
  | results -> `Farm results

let remote_stats_cmd =
  let run specs json prometheus =
    match stats_view specs with
    | `Daemon (socket, j) ->
      if json then print_endline (Json.to_string j)
      else if prometheus then print_string (jstr "prometheus" j)
      else print_string (render_stats ~socket j)
    | `Farm results ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("schema", Json.Str "gmt-farm-stats/1");
                  ( "shards",
                    Json.Arr
                      (List.map
                         (fun ((s : FarmRouter.shard), r) ->
                           Json.Obj
                             [
                               ("name", Json.Str s.FarmRouter.name);
                               ("endpoint", Json.Str s.FarmRouter.endpoint);
                               ( "stats",
                                 match r with
                                 | Ok j -> j
                                 | Error e ->
                                   Json.Obj
                                     [
                                       ("ok", Json.Bool false);
                                       ("err", Json.Str (shard_error e));
                                     ] );
                             ])
                         results) );
                ]))
      else if prometheus then begin
        prerr_endline "gmtc: --prometheus takes a single --socket endpoint";
        exit Cmd.Exit.cli_error
      end
      else print_string (render_farm_stats results)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the raw gmtd-stats/3 frame as JSON (with several \
             endpoints, every shard's frame under one gmt-farm-stats/1 \
             object).")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the registry in Prometheus text-exposition format (one \
             endpoint only).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report a listening gmtd's cache counters, latency percentiles, \
          per-stage breakdown and recent events (default human-readable; \
          $(b,--json) for the raw frame, $(b,--prometheus) for scrape \
          text). With several endpoints, one health line per shard \
          (uptime, in-flight, hit rate, single-flight and replication \
          counters) plus a farm aggregate line.")
    Term.(const run $ endpoints_arg $ json_arg $ prometheus_arg)

let remote_cmd =
  Cmd.group
    (Cmd.info "remote"
       ~doc:
         "Execute compile requests against gmtd: one daemon, or a sharded \
          farm when $(b,--socket) lists several endpoints — each request \
          then routes to the shard owning its cache fingerprint on a \
          consistent-hash ring and fails over along the ring when a shard \
          is down. Responses are byte-identical to the offline commands; \
          a busy daemon's refusal exits 6, and when no daemon answers the \
          client compiles locally (with a stderr warning).")
    [
      remote_run_cmd; remote_check_cmd; remote_sweep_cmd; remote_ping_cmd;
      remote_stats_cmd;
    ]

(* ------------------------------- top ------------------------------- *)

let top_cmd =
  let run specs interval once =
    let frame () =
      match stats_view specs with
      | `Daemon (socket, j) -> render_stats ~socket j
      | `Farm results -> render_farm_stats results
    in
    let rec loop () =
      let s = frame () in
      (* Clear + home rather than full-screen alternate buffer: a ^C
         leaves the last frame visible for copy-paste. *)
      if not once then print_string "\027[2J\027[H";
      print_string s;
      flush stdout;
      if not once then begin
        (try Unix.sleepf interval
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ()
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period of the dashboard.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print one dashboard frame and exit (no screen clearing).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a gmtd daemon's stats plane: hit \
          rate, request latency percentiles (p50/p90/p99), per-stage \
          means, busy/timeout windows and recent events, refreshed every \
          $(b,--interval) seconds. With several $(b,--socket) endpoints, \
          one line per farm shard plus the aggregate instead.")
    Term.(const run $ endpoints_arg $ interval_arg $ once_arg)

let () =
  let doc =
    "global multi-threaded instruction scheduling (GREMIO/DSWP + MTCG + COCO)"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "gmtc" ~version:"1.0.0" ~doc)
          [ list_cmd; show_cmd; pdg_cmd; compile_cmd; check_cmd; run_cmd;
            sweep_cmd; dot_cmd; export_cmd; lint_cmd; fuzz_cmd; serve_cmd;
            remote_cmd; top_cmd ]))
