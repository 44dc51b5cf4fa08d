(* The repository benchmark (see README.md). From the repository root:

     bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
     bash benchmark/run.sh --seed N      (every workload, one process each)

   run.sh builds this executable and the gmtc daemon it drives. The
   executable also takes [--smoke BENCHMARK.json] (the @benchmark-smoke
   gate), [--golden] (prints expected/cells.tsv from the current
   pipeline) and [--cold-rep] (the matrix set-up, run in a child; also
   the @runtest check). *)

module Json = Gmt_obs.Json

let workloads = [ "matrix"; "hit-check"; "hit-run"; "farm-miss" ]

let runner = function
  | "matrix" -> Some Matrix.run
  | "hit-check" -> Some (Served.run Served.Hit_check)
  | "hit-run" -> Some (Served.run Served.Hit_run)
  | "farm-miss" -> Some (Served.run Served.Farm_miss)
  | _ -> None

let trace_file name seed =
  Filename.concat Proc.root (Printf.sprintf "trace-%s-seed%d.json" name seed)

(* One workload in this process. Exits 1 when any op failed its check,
   130 on SIGINT/SIGTERM (without a result line), and never leaves a
   daemon or socket behind. *)
let run_workload name run ~seed ~seconds ~trace =
  Proc.install_signal_handlers ();
  at_exit Proc.cleanup;
  match
    Fun.protect ~finally:Proc.cleanup (fun () -> run ~seed ~seconds ~trace)
  with
  | exception Proc.Interrupted ->
    prerr_endline "benchmark: interrupted";
    exit 130
  | r ->
    Option.iter
      (fun spans ->
        Proc.ensure_root ();
        let path = trace_file name seed in
        Spans.write_chrome spans path;
        Printf.eprintf "benchmark: trace written to %s\n%!" path)
      r.Report.spans;
    Report.print ~workload:name ~trace r;
    if r.Report.ops.Report.failed > 0 then exit 1

(* ------------------------- child processes ------------------------- *)

let child_args name ~seed ~seconds ~trace =
  [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
     "--seconds"; Printf.sprintf "%g" seconds; "--trace";
     (if trace then "1" else "0") |]

(* Runs a workload in a fresh process; returns its pid, exit status and
   stdout. *)
let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let pid = Unix.process_in_pid ic in
  let out = In_channel.input_all ic in
  (pid, Unix.close_process_in ic, out)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* Every workload, each in its own process. *)
let run_all ~seed ~seconds ~trace =
  let failed name =
    let _, status, out = run_child (child_args name ~seed ~seconds ~trace) in
    print_string out;
    flush stdout;
    status <> Unix.WEXITED 0
    ||
    match Json.parse (last_line out) with
    | Ok j -> Json.member "correct" j <> Some (Json.Bool true)
    | Error _ -> true
  in
  match List.filter failed workloads with
  | [] -> ()
  | bad ->
    Printf.eprintf "benchmark: failed: %s\n" (String.concat ", " bad);
    exit 1

(* ------------------------------ smoke ------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Processes still running with the run directory of workload process
   [pid] on their command line: its daemons. *)
let survivors pid =
  let tag = Printf.sprintf "run-%d/" pid in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter (fun d ->
         int_of_string_opt d <> None
         && contains (Proc.read_file (Printf.sprintf "/proc/%s/cmdline" d)) tag)

let smoke_fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark-smoke: " ^ msg);
      exit 1)
    fmt

let assert_clean what pid =
  (match survivors pid with
  | [] -> ()
  | ps ->
    smoke_fail "%s left processes behind: %s" what (String.concat " " ps));
  let dir = Filename.concat Proc.root (Printf.sprintf "run-%d" pid) in
  if Sys.file_exists dir then smoke_fail "%s left %s behind" what dir

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> smoke_fail "%s: no %S" what k

let str what k j =
  match member_exn what k j with
  | Json.Str s -> s
  | _ -> smoke_fail "%s: %S is not a string" what k

(* (name, unit) pairs of a BENCHMARK.json metric list. *)
let catalog j key =
  match member_exn "BENCHMARK.json" key j with
  | Json.Arr ms -> List.map (fun m -> (str key "name" m, str key "unit" m)) ms
  | _ -> smoke_fail "BENCHMARK.json: %s is not a list" key

(* The result line parses, every op passed, and every catalog metric is
   there with its unit and a number (a percentile may be null: a short
   run has too few samples beyond it). *)
let check_result what catalog out =
  let j =
    match Json.parse (last_line out) with
    | Ok j -> j
    | Error e -> smoke_fail "%s: result line does not parse: %s" what e
  in
  if Json.member "correct" j <> Some (Json.Bool true) then
    smoke_fail "%s: not correct" what;
  (match (member_exn what "attempted" j, member_exn what "failed" j) with
  | Json.Num a, Json.Num 0. when a >= 1. -> ()
  | _ -> smoke_fail "%s: failed_share is not 0" what);
  let metrics = member_exn what "metrics" j in
  List.iter
    (fun (name, unit) ->
      let m = member_exn what name metrics in
      if str name "unit" m <> unit then
        smoke_fail "%s: %s has the wrong unit" what name;
      match member_exn name "value" m with
      | Json.Num _ -> ()
      | Json.Null when List.mem name Report.percentiles -> ()
      | _ -> smoke_fail "%s: %s has no value" what name)
    catalog

(* The trace loads and the spans of one op share its id. *)
let check_trace path =
  let j =
    match Json.parse (Proc.read_file path) with
    | Ok j -> j
    | Error e -> smoke_fail "%s does not parse: %s" path e
  in
  let events =
    match member_exn path "traceEvents" j with
    | Json.Arr evs -> evs
    | _ -> smoke_fail "%s: traceEvents is not a list" path
  in
  let reqs =
    List.filter_map
      (fun e ->
        match Option.bind (Json.member "args" e) (Json.member "req") with
        | Some (Json.Str r) -> Some r
        | _ -> None)
      events
  in
  if List.length (List.sort_uniq compare reqs) >= List.length reqs then
    smoke_fail "%s: no two spans share an op id" path;
  Sys.remove path

(* SIGINT mid-run: the workload exits non-zero, prints no result, and
   leaves nothing behind. *)
let sigint_drill () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      (child_args "hit-check" ~seed:1 ~seconds:30. ~trace:false)
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  let sock = Filename.concat Proc.root (Printf.sprintf "run-%d/d0.sock" pid) in
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigint;
  (match snd (Proc.waitpid [] pid) with
  | Unix.WEXITED 0 -> smoke_fail "SIGINT: the workload exited 0"
  | _ -> ());
  assert_clean "SIGINT" pid

let smoke bench_json =
  let t0 = Unix.gettimeofday () in
  let j =
    match Json.parse (Proc.read_file bench_json) with
    | Ok j -> j
    | Error e -> smoke_fail "%s: %s" bench_json e
  in
  let sort = List.sort compare in
  if sort (catalog j "end_to_end") <> sort Report.end_to_end then
    smoke_fail "BENCHMARK.json end_to_end differs from the benchmark's";
  if sort (catalog j "per_layer") <> sort Report.per_layer then
    smoke_fail "BENCHMARK.json per_layer differs from the benchmark's";
  (match member_exn "BENCHMARK.json" "workloads" j with
  | Json.Arr ws when List.map (str "workloads" "name") ws = workloads -> ()
  | _ -> smoke_fail "BENCHMARK.json workloads differ from the benchmark's");
  let run name ~trace =
    let what = name ^ if trace then " (traced)" else "" in
    let pid, status, out =
      run_child (child_args name ~seed:1 ~seconds:0.5 ~trace)
    in
    if status <> Unix.WEXITED 0 then
      smoke_fail "%s exited non-zero:\n%s" what out;
    check_result what
      (if trace then Report.per_layer else Report.end_to_end)
      out;
    assert_clean what pid
  in
  (* The matrix runs traced only: a traced run computes every
     end-to-end value too, and [Report.print] checks them. *)
  List.iter (run ~trace:false) (List.filter (( <> ) "matrix") workloads);
  run "matrix" ~trace:true;
  check_trace (trace_file "matrix" 1);
  sigint_drill ();
  (try Unix.rmdir Proc.root with Unix.Unix_error _ -> ());
  Printf.printf
    "benchmark-smoke: ok (%d workloads, traced pass, SIGINT drill; %.1f s)\n"
    (List.length workloads)
    (Unix.gettimeofday () -. t0)

(* ------------------------------- CLI ------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and mode = ref `Run in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "NAME run one workload (default: all, one process each)" );
      ("--seed", Arg.Set_int seed, "N seed of the inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics (1) or end-to-end");
      ( "--smoke",
        Arg.String (fun f -> mode := `Smoke f),
        "FILE the smoke gate against BENCHMARK.json" );
      ("--golden", Arg.Unit (fun () -> mode := `Golden), " print cells.tsv");
      ("--cold-rep", Arg.Unit (fun () -> mode := `Cold_rep), " matrix set-up");
    ]
  in
  let usage =
    "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
  in
  let fail msg =
    prerr_endline ("benchmark: " ^ msg);
    exit 2
  in
  Arg.parse spec (fun a -> fail ("unexpected argument " ^ a)) usage;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  match (!mode, !workload) with
  | `Golden, _ -> Golden.print ()
  | `Cold_rep, _ -> exit (Matrix.cold_rep ~seed)
  | `Smoke f, _ -> smoke f
  | `Run, None -> run_all ~seed ~seconds ~trace
  | `Run, Some w -> (
    match runner w with
    | Some run -> run_workload w run ~seed ~seconds ~trace
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (known: %s)" w
           (String.concat ", " workloads)))
