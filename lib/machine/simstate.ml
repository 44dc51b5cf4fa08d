open Gmt_ir

(* Per-cycle attribution buckets: every (core, cycle) falls into exactly
   one, so each row of [stall_attr] sums to [cycles]. The codes double as
   the step functions' return value; the outer loop does one array
   increment per core per cycle, keeping the hot-loop cost flat. *)
let bucket_busy = 0
let bucket_latency = 1
let bucket_consume_empty = 2
let bucket_produce_full = 3
let bucket_ports = 4
let bucket_done = 5

let stall_labels =
  [| "busy"; "latency"; "consume_empty"; "produce_full"; "ports"; "done" |]

let n_stall_buckets = Array.length stall_labels

(* Which per-core stat counter a blocked issue attempt charged — recorded
   by the jit kernel so the idle fast-forward can bulk-replay frozen
   cycles (see [Sim]) without re-running the guards. *)
let stat_none = 0
let stat_data = 1
let stat_queue = 2
let stat_ports = 3

(* reg_ready value marking a consume that has issued but whose datum has
   not yet been produced. *)
let pending_mark = max_int / 2

(* [core.k_slots] layout: an 8-bit field per structural class, issued
   count on top. A class count never exceeds the issued count, which the
   issue loops stop at [issue_width], so an issue width up to
   [max_issue_width] keeps every field inside its byte. *)
let slot_shift cls = 8 * cls
let issued_shift = 32
let max_issue_width = 255

(* One synchronization-array queue: a fixed ring of produced entries
   (bounded by the queue capacity — the produce guard never lets
   [logical_occupancy] reach past it) plus a growable ring of consumers
   that issued against an empty queue (stall-on-use). Rings instead of
   [Queue.t] so the issue loops allocate nothing per produce/consume. *)
type queue_state = {
  entry_value : int array;
  entry_ready : int array;
  mutable e_head : int;
  mutable e_len : int;
  mutable waiter_core : int array;
  mutable waiter_dst : int array; (* destination register, or -1 = sync *)
  mutable w_head : int;
  mutable w_len : int;
  mutable logical_occupancy : int;
      (* entries + produced-but-delivered slots; bounded by capacity *)
}

let make_queue ~capacity =
  let cap = max 1 capacity in
  {
    entry_value = Array.make cap 0;
    entry_ready = Array.make cap 0;
    e_head = 0;
    e_len = 0;
    waiter_core = Array.make 4 0;
    waiter_dst = Array.make 4 0;
    w_head = 0;
    w_len = 0;
    logical_occupancy = 0;
  }

(* FIFO-order iteration, oldest waiter first (deadlock reporting). *)
let waiter_iter f qs =
  let cap = Array.length qs.waiter_core in
  for k = 0 to qs.w_len - 1 do
    let i = qs.w_head + k in
    let i = if i >= cap then i - cap else i in
    f ~core:qs.waiter_core.(i) ~dst:qs.waiter_dst.(i)
  done

type core = {
  func : Func.t;
  regs : int array;
  reg_ready : int array;
  mutable pc : int; (* jit kernel: index into flat code *)
  mutable finished : bool;
  mutable finish_cycle : int;
  l1 : Cache.t;
  l2 : Cache.t;
  (* acquire-fence state *)
  mutable outstanding_syncs : int;
  mutable fence_ready : int;
  (* jit kernel per-cycle issue-group scratch, one word: an 8-bit count
     of the slots each structural class used this cycle (Calu, Cfp, Cmem,
     Cbr from the low byte up; see [slot_shift]) and the instructions
     issued this cycle above them from bit [issued_shift]. The issue
     loops reset it with one store; an issuing closure checks its class
     and bumps both counts with one add. *)
  mutable k_slots : int;
  (* jit idle fast-forward metadata, written by a blocking closure: the
     first cycle at which re-evaluating its guard could change outcome
     ([max_int] = only another core's progress can unblock it), and the
     stat counter the blocked attempt charged. *)
  mutable wake : int;
  mutable blocked_stat : int;
  (* Event-driven freeze for blocks that only another core's progress
     can lift (wake = [max_int]): [frozen_stamp] holds the global event
     stamp captured when the head instruction blocked with nothing
     issued this cycle, and [replay_bucket] the bucket that block
     charged. While the stamp is unchanged no produce was delivered and
     no queue drained anywhere, so re-running the guard would repeat the
     same charge; [Sim.run]'s issue loops replay it without the call. *)
  mutable frozen_stamp : int;
  mutable replay_bucket : int;
  (* stats *)
  mutable s_instrs : int;
  mutable s_comm : int;
  mutable s_sync : int;
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
  mutable sa_ports_left : int; (* per-cycle shared SA port budget *)
  (* Global cross-core event stamp, bumped whenever a value is produced
     or a queue entry is consumed — the only events that can lift a
     [max_int]-wake block. Monotone, so a stale [frozen_stamp] can never
     match again once an event has happened. *)
  mutable stamp : int;
}

let make (mc : Config.t) (p : Mtprog.t) ~init_regs ~init_mem ~mem_size =
  let mask = mem_size - 1 in
  let memory = Array.make mem_size 0 in
  List.iter (fun (a, v) -> memory.(a land mask) <- v) init_mem;
  let mk_core (f : Func.t) =
    let regs = Array.make (max 1 f.Func.n_regs) 0 in
    List.iter
      (fun (r, v) ->
        if Reg.to_int r < Array.length regs then regs.(Reg.to_int r) <- v)
      init_regs;
    {
      func = f;
      regs;
      reg_ready = Array.make (max 1 f.Func.n_regs) 0;
      pc = 0;
      finished = false;
      finish_cycle = 0;
      l1 = Cache.create ~size:mc.Config.l1_size ~assoc:mc.Config.l1_assoc
             ~line:mc.Config.l1_line;
      l2 = Cache.create ~size:mc.Config.l2_size ~assoc:mc.Config.l2_assoc
             ~line:mc.Config.l2_line;
      outstanding_syncs = 0;
      fence_ready = 0;
      k_slots = 0;
      wake = max_int;
      blocked_stat = stat_none;
      frozen_stamp = -1;
      replay_bucket = 0;
      s_instrs = 0;
      s_comm = 0;
      s_sync = 0;
      s_stall_data = 0;
      s_stall_queue = 0;
      s_stall_ports = 0;
      s_loads = 0;
      s_l1 = 0;
      s_l2 = 0;
      s_l3 = 0;
      s_mem = 0;
    }
  in
  let n_queues = max 1 p.Mtprog.n_queues in
  {
    mc;
    memory;
    mask;
    cores = Array.map mk_core p.Mtprog.threads;
    queues =
      Array.init n_queues (fun _ -> make_queue ~capacity:mc.Config.queue_size);
    queue_peak = Array.make n_queues 0;
    l3 =
      Cache.create ~size:mc.Config.l3_size ~assoc:mc.Config.l3_assoc
        ~line:mc.Config.l3_line;
    now = 0;
    sa_ports_left = 0;
    stamp = 0;
  }
