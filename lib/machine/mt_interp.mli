(** Untimed concurrent interpreter for multi-threaded programs.

    Threads share memory and communicate through the program's queues,
    the synchronization array without its timing: one ring of
    [queue_capacity] entries per queue, where a produce to a full queue
    and a consume from an empty one block the thread. Each thread
    starts from the same initial register file (thread spawn copies
    registers, which is how live-ins reach all threads). Scheduling is
    per-instruction round-robin or seeded-random — correctness of MTCG
    output must not depend on the interleaving, and tests exercise both.

    It explores schedules for the fuzzer and serves the tests; every
    measured program, [gmtc sweep]'s cells included, takes its counts
    from {!Sim} instead, and tests pin the two to each other under both
    schedulers.

    It has one inner loop, which steps a thread by walking its current
    block's instruction list: the plainest statement of the semantics
    the scheduler explores. It is on no measurement path, and a step
    allocates nothing, so a run's allocation is its memory image and
    per-thread state. *)

open Gmt_ir

type sched = Round_robin | Random of int  (** seed *)

type thread_stats = {
  dyn_instrs : int;       (** everything executed, communication included *)
  produces : int;
  consumes : int;
  produce_syncs : int;
  consume_syncs : int;
}

type result = {
  memory : int array;
  threads : thread_stats array;
  deadlocked : bool;
  fuel_exhausted : bool;
  queues_drained : bool;  (** all queues empty at termination *)
  blocked : string list;
      (** when [deadlocked], one line per unfinished thread naming the
          queue it is stuck on; [[]] otherwise *)
}

val comm_of : thread_stats -> int

(** Total communication instructions executed, all threads. *)
val total_comm : result -> int

(** @raise Invalid_argument if [mem_size] is not a power of two or
    [queue_capacity] is below 1. *)
val run :
  ?fuel:int ->
  ?sched:sched ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Mtprog.t ->
  queue_capacity:int ->
  mem_size:int ->
  result
