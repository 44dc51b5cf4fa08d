(* The execution pool: every task runs once with its result in
   submission order, the counters account for each one, and trivial
   task lists never spawn a domain. *)

module Pool = Gmt_parallel.Pool

let check = Alcotest.check
let int_list = Alcotest.(list int)

let test_pool_runs_everything () =
  let p = Pool.create ~jobs:3 () in
  let n = 500 in
  let futs = List.init n (fun i -> Pool.submit p (fun () -> i)) in
  let out = List.map Pool.await futs in
  Pool.shutdown p;
  check int_list "results in submission order" (List.init n (fun i -> i)) out;
  let st = Pool.stats p in
  check Alcotest.int "stats.workers" 3 st.Pool.workers;
  check Alcotest.int "stats.tasks_run" n st.Pool.tasks_run

let test_pool_no_spawn_for_trivial_lists () =
  let base = Pool.domains_spawned_total () in
  check int_list "empty list" [] (Pool.run_list ~jobs:8 []);
  check int_list "singleton" [ 42 ] (Pool.run_list ~jobs:8 [ (fun () -> 42) ]);
  check Alcotest.int "no domain spawned for [] or singleton" base
    (Pool.domains_spawned_total ());
  check int_list "pair still runs" [ 1; 2 ]
    (Pool.run_list ~jobs:8 [ (fun () -> 1); (fun () -> 2) ]);
  check Alcotest.int "worker count capped at task count" (base + 2)
    (Pool.domains_spawned_total ())

let test_pool_singleton_validates_jobs_first () =
  check Alcotest.bool "bad jobs rejected even for singleton" true
    (match Pool.run_list ~jobs:0 [ (fun () -> 1) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pool_stats () =
  let p = Pool.create ~jobs:2 () in
  let futs = List.init 64 (fun i -> Pool.submit p (fun () -> i * i)) in
  let out = List.map Pool.await futs in
  Pool.shutdown p;
  check int_list "results in submission order"
    (List.init 64 (fun i -> i * i))
    out;
  let st = Pool.stats p in
  check Alcotest.int "tasks_run" 64 st.Pool.tasks_run;
  check Alcotest.int "workers" 2 st.Pool.workers

let tests =
  [
    Alcotest.test_case "pool runs everything + stats" `Quick
      test_pool_runs_everything;
    Alcotest.test_case "pool: trivial lists spawn no domain" `Quick
      test_pool_no_spawn_for_trivial_lists;
    Alcotest.test_case "pool: jobs validated before fast path" `Quick
      test_pool_singleton_validates_jobs_first;
    Alcotest.test_case "pool stats surface scheduler counters" `Quick
      test_pool_stats;
  ]
