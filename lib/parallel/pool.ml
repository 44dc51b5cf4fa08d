(* Futures + determinism contract over the work-stealing runtime.

   Execution is delegated to Gmt_exec.Sched; this module adds the inline
   jobs<=1 mode, the error strings, submission-order collection and
   exception/backtrace propagation. *)

type t = {
  n_workers : int;
  sched : Gmt_exec.Sched.t option; (* None <=> inline (jobs <= 1) *)
  closed : bool Atomic.t;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  flock : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
}

let check_jobs where jobs =
  if jobs <= 0 then
    invalid_arg
      (Printf.sprintf "%s: jobs must be >= 1 (got %d)" where jobs)

let create ?blocking ~jobs () =
  check_jobs "Pool.create" jobs;
  let n_workers = if jobs <= 1 then 0 else jobs in
  let sched =
    if n_workers = 0 then None
    else Some (Gmt_exec.Sched.create ?blocking ~workers:n_workers ())
  in
  { n_workers; sched; closed = Atomic.make false }

let size pool = pool.n_workers

let stats pool = Option.map Gmt_exec.Sched.stats pool.sched

let submit pool f =
  let fut =
    { flock = Mutex.create (); fdone = Condition.create (); state = Pending }
  in
  let job () =
    let st =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.flock;
    fut.state <- st;
    Condition.broadcast fut.fdone;
    Mutex.unlock fut.flock
  in
  if Atomic.get pool.closed then invalid_arg "Pool.submit: pool is shut down";
  (match pool.sched with
  | None -> job ()
  | Some sched -> (
    try Gmt_exec.Sched.submit sched job
    with Invalid_argument _ ->
      (* Raced with shutdown: report it as ours, not the scheduler's. *)
      invalid_arg "Pool.submit: pool is shut down"));
  fut

let await fut =
  Mutex.lock fut.flock;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fdone fut.flock;
      wait ()
    | Done v ->
      Mutex.unlock fut.flock;
      v
    | Failed (e, bt) ->
      Mutex.unlock fut.flock;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let shutdown pool =
  if Atomic.compare_and_set pool.closed false true then
    match pool.sched with
    | None -> ()
    | Some sched -> Gmt_exec.Sched.shutdown sched

let default_jobs () =
  match Sys.getenv_opt "GMT_JOBS" with
  | Some s when String.trim s = "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ ->
      invalid_arg
        (Printf.sprintf
           "GMT_JOBS must be a positive integer (got %S)" s))
  | None -> Domain.recommended_domain_count ()

let run_list ?jobs tasks =
  (* Validate [jobs] before any fast path: a bad jobs count is a bug
     even when the task list happens to be trivial. *)
  let jobs =
    match jobs with
    | Some j ->
      check_jobs "Pool.run_list" j;
      j
    | None -> default_jobs ()
  in
  match tasks with
  | [] -> []
  | [ f ] -> [ f () ] (* never spawn a domain for one task *)
  | tasks ->
    if jobs <= 1 then List.map (fun f -> f ()) tasks
    else begin
      (* More workers than tasks would just park and get joined. *)
      let jobs = min jobs (List.length tasks) in
      let pool = create ~jobs () in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () ->
          let futures = List.map (submit pool) tasks in
          List.map await futures)
    end
