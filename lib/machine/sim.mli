(** Cycle-level CMP simulator.

    Models the paper's evaluation machine (Figure 6(a)): per-core in-order
    issue with per-class unit limits (ALU / M / FP / branch), the M-type
    restriction that loads, stores, produces and consumes share 4 issue
    slots, a private L1/L2 + shared L3 cache hierarchy with fixed hit
    latencies, and the synchronization array with its access latency,
    bounded queues and shared request ports.

    Consumes are {e stall-on-use}: a consume may issue with an empty queue;
    its destination register becomes ready one SA latency after the
    matching produce, and only instructions that read it stall
    ([consume.sync] instead fences later memory operations, giving acquire
    semantics; [produce.sync] has release semantics for free because issue
    is in order and stores commit at issue).

    A thread's count ends in the cycle its [Return] issues: results
    still in flight then, such as a load's miss or a long-latency value
    that nothing reads, are not charged. So on the Fig-6 core a chain of
    [n] dependent ops of latency [l] ends [l * (n - 1) + 1] cycles after
    it starts; [test_machine]'s Fig-6 table pins such counts on this
    engine and on {!Legacy}.

    This is the one engine that executes a measured program. Each
    decoded instruction is compiled once into an OCaml closure fusing
    the issue guards with the operand fetch/writeback (see {!Jit}), and
    the issue loop fast-forwards provably frozen all-idle stretches in
    bulk. The loop is specialized by core count: one core (the
    single-threaded references), two cores (the paper's dual-core CMP,
    which every multi-threaded cell of the evaluation simulates), and a
    generic loop for three or more; all three step the same per-core
    cycle and are cycle-for-cycle identical. {!Legacy.run} is the
    list-walking original it must reproduce byte for byte — [cycles],
    [stall_attr], [queue_peak], per-core stats, memory, deadlock
    verdicts — which QCheck properties in [test_simkernel] enforce at
    two and three cores; tests and the bench harness call it
    directly. *)

open Gmt_ir

type core_stats = {
  instrs : int;
  comm_instrs : int;  (** produce/consume issued, syncs included *)
  sync_instrs : int;  (** [produce.sync] + [consume.sync] issued *)
  stall_data : int;    (** cycles stalled on operand readiness *)
  stall_queue : int;   (** cycles stalled on queue full / sync fence *)
  stall_ports : int;   (** cycles lost to structural limits *)
  loads : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  mem_accesses : int;  (** loads that went to main memory *)
  finish_cycle : int;
}

type result = {
  cycles : int;
  memory : int array;
  per_core : core_stats array;
  deadlocked : bool;
  fuel_exhausted : bool;
  idle_peak : int;
      (** longest all-cores-idle stretch observed; compare against
          [deadlock_threshold] to spot near-miss deadlocks *)
  deadlock_threshold : int;  (** the threshold this run deadlock-checked at *)
  stall_attr : int array array;
      (** per-core per-cycle attribution, indexed by {!stall_labels}:
          every cycle of every core lands in exactly one bucket, so each
          row sums to [cycles]. Accumulated in pre-sized int arrays by
          the issue loop (one increment per core per cycle) — not gated
          on the {!Gmt_obs} switches. *)
  queue_peak : int array;
      (** peak logical occupancy observed per synchronization-array
          queue *)
  deadlock_report : string list;
      (** when [deadlocked], one line per unfinished core naming the
          queue it is stuck on (empty-queue consume or full-queue
          produce); [[]] otherwise *)
}

(** Bucket names for {!result.stall_attr} rows, in index order:
    [busy] (issued at least one instruction), [latency] (operand or
    fence latency), [consume_empty] (waiting on data or a sync token not
    yet produced), [produce_full] (produce blocked on a full queue),
    [ports] (structural issue/SA port limits), [done] (cycles after the
    core finished). *)
val stall_labels : string array

val n_stall_buckets : int

(** Consecutive idle cycles after which a run is declared deadlocked,
    derived from the machine's memory latency, queue capacity and
    synchronization-array latency. *)
val deadlock_threshold : Config.t -> int

(** The cycle budget of a run given no [fuel]: 100M. *)
val default_fuel : int

(** Simulate [p] on [mc] from [init_regs] (copied into every thread)
    and [init_mem]. [fuel] (default {!default_fuel}) bounds the
    simulated cycles: a run that reaches it stops mid-flight with
    [fuel_exhausted] set and partial memory, counts and cycles. A run
    that completes under some fuel completes identically under any
    larger fuel.
    @raise Invalid_argument if [mem_size] is not a power of two, [p]
    has more threads than [mc] has cores, or [mc.issue_width] exceeds
    255. *)
val run :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Mtprog.t ->
  mem_size:int ->
  result

(** Run the single-threaded original on one core of the same machine —
    the baseline of the paper's Figure 8 speedups. *)
val run_single :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Func.t ->
  mem_size:int ->
  result
