(** Mutable machine state shared by {!Sim}'s issue loops and the
    {!Jit} closure compiler.

    The jit kernel steps this state — cores, synchronization-array
    queues, caches, the cycle counter and the per-cycle SA port budget.
    Queue entries and waiting consumers live in preallocated rings
    (entries are bounded by the queue capacity; waiter rings grow by
    doubling, bounded by cores x registers), so produce/consume allocate
    nothing in steady state. The operations on the issue path (ring
    pushes and pops, produce delivery, the cache walk) live in {!Jit},
    their only caller. *)

open Gmt_ir

(** {2 Cycle attribution}

    Bucket codes for [stall_attr] rows; they double as the step
    functions' return values. *)

val bucket_busy : int
val bucket_latency : int
val bucket_consume_empty : int
val bucket_produce_full : int
val bucket_ports : int
val bucket_done : int

val stall_labels : string array
val n_stall_buckets : int

(** Which per-core stat counter a blocked issue attempt charged
    (recorded by the jit kernel for the idle fast-forward). *)

val stat_none : int
val stat_data : int
val stat_queue : int
val stat_ports : int

(** [reg_ready] value marking a consume that has issued but whose datum
    has not yet been produced (stall-on-use). *)
val pending_mark : int

(** {2 Issue slots}

    Layout of {!core.k_slots}: an 8-bit count per structural class
    (class index [i] of Calu, Cfp, Cmem, Cbr at bit [slot_shift i]) and
    the group's issued count from bit [issued_shift] up. *)

val slot_shift : int -> int
val issued_shift : int

(** The widest issue group whose counts the layout holds. *)
val max_issue_width : int

(** One synchronization-array queue: a fixed entry ring plus a growable
    ring of consumers blocked on an empty queue. *)
type queue_state = {
  entry_value : int array;
  entry_ready : int array;
  mutable e_head : int;
  mutable e_len : int;
  mutable waiter_core : int array;
  mutable waiter_dst : int array;  (** destination register, or -1 = sync *)
  mutable w_head : int;
  mutable w_len : int;
  mutable logical_occupancy : int;
}

(** FIFO-order iteration over blocked consumers, oldest first. *)
val waiter_iter : (core:int -> dst:int -> unit) -> queue_state -> unit

type core = {
  func : Func.t;
  regs : int array;
  reg_ready : int array;
  mutable pc : int;  (** jit kernel: index into flat code *)
  mutable finished : bool;
  mutable finish_cycle : int;
  l1 : Cache.t;
  l2 : Cache.t;
  mutable outstanding_syncs : int;
  mutable fence_ready : int;
  mutable k_slots : int;
      (** jit: this cycle's per-class slot counts and issued count, in
          one word (see {!slot_shift}); 0 before the group issues *)
  mutable wake : int;
      (** jit: earliest cycle a blocked guard could re-evaluate
          differently; [max_int] when only another core can unblock it *)
  mutable blocked_stat : int;  (** jit: stat counter the block charged *)
  mutable frozen_stamp : int;
      (** jit: global event stamp when the head blocked with
          wake = [max_int] and nothing issued; replay the block until the
          stamp moves (-1 = not frozen) *)
  mutable replay_bucket : int;
      (** jit: bucket to replay while frozen or before [wake] *)
  mutable s_instrs : int;
  mutable s_comm : int;
  mutable s_sync : int;  (** produce.sync + consume.sync issued *)
  mutable s_stall_data : int;
  mutable s_stall_queue : int;
  mutable s_stall_ports : int;
  mutable s_loads : int;
  mutable s_l1 : int;
  mutable s_l2 : int;
  mutable s_l3 : int;
  mutable s_mem : int;
}

type t = {
  mc : Config.t;
  memory : int array;
  mask : int;
  cores : core array;
  queues : queue_state array;
  queue_peak : int array;
  l3 : Cache.t;
  mutable now : int;
  mutable sa_ports_left : int;
  mutable stamp : int;
      (** cross-core event counter (produce delivered / entry consumed);
          lifts [frozen_stamp] replays *)
}

(** Build the initial state ([mem_size] must be a power of two — the
    caller validates). *)
val make :
  Config.t ->
  Mtprog.t ->
  init_regs:(Reg.t * int) list ->
  init_mem:(int * int) list ->
  mem_size:int ->
  t
