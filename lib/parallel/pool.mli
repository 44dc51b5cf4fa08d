(** Futures and deterministic fan-out over one locked task queue.

    The evaluation matrix — (workload, partitioner, ±COCO) cells, each an
    independent compile + simulate — fans out across OCaml 5 domains
    through this pool, and so does the gmtd daemon, one task per
    connection. A pool is [jobs] worker domains draining one FIFO under
    one mutex and condition variable. Futures are fulfilled with
    whatever the task computes, and callers collect them in submission
    order, so results are byte-identical for every [jobs] value (the
    cells share no mutable state; only scheduling differs).

    {!run_list} with [jobs <= 1], or with an empty or singleton task
    list, spawns no domain and runs the tasks inline, preserving the
    exact single-threaded execution. *)

type t
(** A pool of worker domains sharing one task queue. *)

type 'a future

val create : jobs:int -> unit -> t
(** [create ~jobs] spawns exactly [jobs] worker domains, whatever the
    core count: gmtd's request handlers block in I/O and on the
    single-flight condvar, so every worker must be schedulable.
    @raise Invalid_argument when [jobs <= 0]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task and wake one waiting worker. Exceptions raised by the
    task are captured and re-raised by {!await}.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task completes; re-raises its exception (with the
    original backtrace) if it failed. *)

val shutdown : t -> unit
(** Drain remaining tasks, then join all workers. Idempotent; call it
    from the domain that created the pool. *)

type stats = {
  workers : int;  (** worker domains, [jobs] *)
  tasks_run : int;  (** tasks run to completion *)
  parks : int;  (** times a worker waited on an empty queue *)
}

val stats : t -> stats
(** Counter snapshot, read under the queue's lock. *)

val domains_spawned_total : unit -> int
(** Process-wide count of worker domains ever spawned by {!create}; the
    regression test that {!run_list} spawns no domain for an empty or
    singleton task list reads it. *)

val run_list : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run_list ~jobs tasks] runs all tasks on a fresh pool of [jobs]
    workers (capped at [List.length tasks]) and returns their results in
    task order. [jobs] defaults to {!default_jobs}. Empty and singleton
    lists run inline without spawning, for any [jobs]. The pool is shut
    down even if a task raises.
    @raise Invalid_argument when [jobs <= 0]. *)

val default_jobs : unit -> int
(** [GMT_JOBS] from the environment, otherwise
    [Domain.recommended_domain_count ()]. Unset and empty are
    equivalent.
    @raise Invalid_argument when [GMT_JOBS] is set but is not a positive
    integer — a typo'd environment variable should fail loudly, not
    silently fall back. *)
