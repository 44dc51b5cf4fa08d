(* The work-stealing runtime under the harshest schedules we can force:
   multi-domain steal hammers on the Chase-Lev deque (no task lost or
   duplicated, owner LIFO / thief FIFO ordering, last-element races
   resolved exactly-once), the MPMC injector under producer/consumer
   crossfire, scheduler counter accounting, and the Pool fast-path
   guarantee that trivial task lists never spawn a domain. *)

module Deque = Gmt_exec.Deque
module Injector = Gmt_exec.Injector
module Sched = Gmt_exec.Sched
module Pool = Gmt_parallel.Pool

let check = Alcotest.check
let int_list = Alcotest.(list int)

(* ------- deque: single-domain ordering contracts ------- *)

let test_owner_lifo () =
  let d = Deque.create () in
  for i = 0 to 99 do
    Deque.push d i
  done;
  let popped = List.init 100 (fun _ -> Option.get (Deque.pop d)) in
  check int_list "owner pop is LIFO" (List.init 100 (fun i -> 99 - i)) popped;
  check Alcotest.(option int) "then empty" None (Deque.pop d)

let test_thief_fifo () =
  let d = Deque.create () in
  for i = 0 to 99 do
    Deque.push d i
  done;
  let stolen = ref [] in
  let rec go () =
    match Deque.steal d with
    | Deque.Stolen x ->
      stolen := x :: !stolen;
      go ()
    | Deque.Retry -> go ()
    | Deque.Empty -> ()
  in
  go ();
  check int_list "thief steal is FIFO" (List.init 100 (fun i -> i))
    (List.rev !stolen)

let test_grow_preserves () =
  (* Force several buffer doublings past the initial capacity. *)
  let d = Deque.create () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Deque.push d i
  done;
  check Alcotest.int "size after pushes" n (Deque.size d);
  let popped = List.init n (fun _ -> Option.get (Deque.pop d)) in
  check int_list "grow keeps the live window"
    (List.init n (fun i -> n - 1 - i))
    popped

(* ------- deque: multi-domain hammer ------- *)

(* Owner pushes [0 .. n-1], interleaving pops; [n_thieves] domains steal
   concurrently until the owner is done and the deque is drained. Every
   value must surface exactly once across owner pops and thief steals. *)
let deque_hammer ~n_thieves ~n =
  let d = Deque.create () in
  let finished = Atomic.make false in
  let thieves =
    List.init n_thieves (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Deque.steal d with
              | Deque.Stolen x -> loop (x :: acc)
              | Deque.Retry -> loop acc
              | Deque.Empty ->
                if Atomic.get finished then acc
                else begin
                  Domain.cpu_relax ();
                  loop acc
                end
            in
            loop []))
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 3 = 0 then
      match Deque.pop d with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  (* Owner drains what the thieves leave behind. *)
  let rec drain () =
    match Deque.pop d with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set finished true;
  let stolen = List.concat_map Domain.join thieves in
  List.sort compare (!popped @ stolen)

let prop_deque_no_lost_no_dup =
  QCheck.Test.make ~count:25
    ~name:"deque hammer: every task exactly once (multi-domain steal)"
    QCheck.(pair (int_range 1 3) (int_range 20 300))
    (fun (n_thieves, n) ->
      deque_hammer ~n_thieves ~n = List.init n (fun i -> i))

let test_one_element_race () =
  (* Last-element race: owner pop vs thief steal on a single value must
     hand it to exactly one side, every time. *)
  for _ = 1 to 200 do
    let d = Deque.create () in
    Deque.push d 7;
    let thief =
      Domain.spawn (fun () ->
          let rec go () =
            match Deque.steal d with
            | Deque.Stolen x -> Some x
            | Deque.Retry -> go ()
            | Deque.Empty -> None
          in
          go ())
    in
    let mine = Deque.pop d in
    let theirs = Domain.join thief in
    (match (mine, theirs) with
    | Some 7, None | None, Some 7 | None, None -> ()
    | Some _, Some _ -> Alcotest.fail "one element claimed by both sides"
    | _ -> Alcotest.fail "wrong value surfaced");
    (* Whoever lost, the element must not evaporate: if neither got it
       here the thief gave up before the push was visible — it must
       still be poppable. *)
    match (mine, theirs) with
    | None, None ->
      check Alcotest.(option int) "still there" (Some 7) (Deque.pop d)
    | _ -> check Alcotest.(option int) "drained" None (Deque.pop d)
  done

(* ------- injector: MPMC crossfire ------- *)

let test_injector_fifo () =
  let q = Injector.create () in
  check Alcotest.bool "fresh is empty" true (Injector.is_empty q);
  for i = 0 to 99 do
    Injector.push q i
  done;
  check Alcotest.bool "no longer empty" false (Injector.is_empty q);
  let out = List.init 100 (fun _ -> Option.get (Injector.pop q)) in
  check int_list "FIFO order" (List.init 100 (fun i -> i)) out;
  check Alcotest.(option int) "then empty" None (Injector.pop q)

let test_injector_mpmc () =
  let q = Injector.create () in
  let per = 500 and n_prod = 2 and n_cons = 2 in
  let total = per * n_prod in
  let finished = Atomic.make false in
  let consumers =
    List.init n_cons (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Injector.pop q with
              | Some x -> loop (x :: acc)
              | None ->
                if Atomic.get finished then acc
                else begin
                  Domain.cpu_relax ();
                  loop acc
                end
            in
            loop []))
  in
  let producers =
    List.init n_prod (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Injector.push q ((p * per) + i)
            done))
  in
  List.iter Domain.join producers;
  Atomic.set finished true;
  let got = List.concat_map Domain.join consumers in
  check Alcotest.int "count" total (List.length got);
  check int_list "every value exactly once"
    (List.init total (fun i -> i))
    (List.sort compare got)

(* ------- scheduler ------- *)

let test_sched_runs_everything () =
  let s = Sched.create ~workers:3 () in
  let hits = Atomic.make 0 in
  let n = 500 in
  for _ = 1 to n do
    Sched.submit s (fun () -> Atomic.incr hits)
  done;
  Sched.shutdown s;
  check Alcotest.int "all tasks ran" n (Atomic.get hits);
  let st = Sched.stats s in
  check Alcotest.int "stats.workers" 3 st.Sched.workers;
  check Alcotest.int "stats.tasks_run" n st.Sched.tasks_run;
  check Alcotest.int "stats.injected" n st.Sched.injected;
  check Alcotest.bool "steal accounting is consistent" true
    (st.Sched.steals_succeeded <= st.Sched.steals_attempted)

let test_sched_shutdown_idempotent () =
  let s = Sched.create ~workers:2 () in
  Sched.submit s ignore;
  Sched.shutdown s;
  Sched.shutdown s;
  check Alcotest.bool "submit after shutdown rejected" true
    (match Sched.submit s ignore with
    | () -> false
    | exception Invalid_argument _ -> true)

exception Kaboom of int

let test_sched_exception_surfaces () =
  (* Raw tasks (no future wrapper) leak exceptions to shutdown. *)
  let s = Sched.create ~workers:2 () in
  for i = 1 to 10 do
    Sched.submit s (fun () -> if i = 5 then raise (Kaboom i))
  done;
  check Alcotest.bool "shutdown re-raises the task's exception" true
    (match Sched.shutdown s with
    | () -> false
    | exception Kaboom 5 -> true)

(* ------- pool fast paths and stats ------- *)

let test_pool_no_spawn_for_trivial_lists () =
  let base = Sched.domains_spawned_total () in
  check int_list "empty list" [] (Pool.run_list ~jobs:8 []);
  check int_list "singleton" [ 42 ] (Pool.run_list ~jobs:8 [ (fun () -> 42) ]);
  check Alcotest.int "no domain spawned for [] or singleton" base
    (Sched.domains_spawned_total ());
  check int_list "pair still runs" [ 1; 2 ]
    (Pool.run_list ~jobs:8 [ (fun () -> 1); (fun () -> 2) ]);
  check Alcotest.int "worker count capped at task count" (base + 2)
    (Sched.domains_spawned_total ())

let test_pool_singleton_validates_jobs_first () =
  check Alcotest.bool "bad jobs rejected even for singleton" true
    (match Pool.run_list ~jobs:0 [ (fun () -> 1) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pool_stats () =
  check Alcotest.bool "inline pool has no scheduler stats" true
    (Pool.stats (Pool.create ~jobs:1 ()) = None);
  let p = Pool.create ~jobs:2 () in
  let futs = List.init 64 (fun i -> Pool.submit p (fun () -> i * i)) in
  let out = List.map Pool.await futs in
  Pool.shutdown p;
  check int_list "results in submission order"
    (List.init 64 (fun i -> i * i))
    out;
  match Pool.stats p with
  | None -> Alcotest.fail "threaded pool must expose scheduler stats"
  | Some st ->
    check Alcotest.int "tasks_run" 64 st.Sched.tasks_run;
    check Alcotest.int "workers" 2 st.Sched.workers

let tests =
  [
    Alcotest.test_case "deque owner LIFO" `Quick test_owner_lifo;
    Alcotest.test_case "deque thief FIFO" `Quick test_thief_fifo;
    Alcotest.test_case "deque grow preserves window" `Quick test_grow_preserves;
    QCheck_alcotest.to_alcotest prop_deque_no_lost_no_dup;
    Alcotest.test_case "deque one-element race" `Quick test_one_element_race;
    Alcotest.test_case "injector FIFO" `Quick test_injector_fifo;
    Alcotest.test_case "injector MPMC crossfire" `Quick test_injector_mpmc;
    Alcotest.test_case "sched runs everything + stats" `Quick
      test_sched_runs_everything;
    Alcotest.test_case "sched shutdown idempotent" `Quick
      test_sched_shutdown_idempotent;
    Alcotest.test_case "sched surfaces raw-task exception" `Quick
      test_sched_exception_surfaces;
    Alcotest.test_case "pool: trivial lists spawn no domain" `Quick
      test_pool_no_spawn_for_trivial_lists;
    Alcotest.test_case "pool: jobs validated before fast path" `Quick
      test_pool_singleton_validates_jobs_first;
    Alcotest.test_case "pool stats surface scheduler counters" `Quick
      test_pool_stats;
  ]
