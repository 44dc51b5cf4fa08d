(* Futures + determinism contract over one locked FIFO.

   [jobs] worker domains drain a single [Queue.t] guarded by one mutex
   and one condition variable; the counters live under the same mutex.
   A worker runs each task with the lock released, waits on the
   condition when the queue is empty, and exits once the pool is
   stopped and the queue is drained. Tasks never raise: [submit] wraps
   each one so that its result or exception fills a future. *)

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable tasks_run : int;
  mutable parks : int;
  mutable domains : unit Domain.t list;
}

type stats = { workers : int; tasks_run : int; parks : int }

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

let spawned = Atomic.make 0

let domains_spawned_total () = Atomic.get spawned

(* Entered and left with [pool.lock] held. *)
let rec work pool =
  match Queue.take_opt pool.tasks with
  | Some task ->
    Mutex.unlock pool.lock;
    task ();
    Mutex.lock pool.lock;
    pool.tasks_run <- pool.tasks_run + 1;
    work pool
  | None when pool.stopped -> ()
  | None ->
    pool.parks <- pool.parks + 1;
    Condition.wait pool.nonempty pool.lock;
    work pool

let create ~jobs () =
  check_jobs "Pool.create" jobs;
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      tasks_run = 0;
      parks = 0;
      domains = [];
    }
  in
  pool.domains <-
    List.init jobs (fun _ ->
        Atomic.incr spawned;
        Domain.spawn (fun () ->
            Mutex.lock pool.lock;
            work pool;
            Mutex.unlock pool.lock));
  pool

let stats pool =
  Mutex.lock pool.lock;
  let s =
    {
      workers = List.length pool.domains;
      tasks_run = pool.tasks_run;
      parks = pool.parks;
    }
  in
  Mutex.unlock pool.lock;
  s

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
  Mutex.lock pool.lock;
  if pool.stopped then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job pool.tasks;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.lock;
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
  Mutex.lock pool.lock;
  let first = not pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  if first then List.iter Domain.join pool.domains

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
      (* More workers than tasks would just wait and get joined. *)
      let jobs = min jobs (List.length tasks) in
      let pool = create ~jobs () in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () ->
          let futures = List.map (submit pool) tasks in
          List.map await futures)
    end
