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

let entry_push qs ~value ~ready =
  let cap = Array.length qs.entry_value in
  let tail = qs.e_head + qs.e_len in
  let tail = if tail >= cap then tail - cap else tail in
  qs.entry_value.(tail) <- value;
  qs.entry_ready.(tail) <- ready;
  qs.e_len <- qs.e_len + 1

let entry_head_value qs = qs.entry_value.(qs.e_head)
let entry_head_ready qs = qs.entry_ready.(qs.e_head)

let entry_drop qs =
  let h = qs.e_head + 1 in
  qs.e_head <- (if h >= Array.length qs.entry_value then 0 else h);
  qs.e_len <- qs.e_len - 1

let waiter_push qs ~core ~dst =
  let cap = Array.length qs.waiter_core in
  if qs.w_len = cap then begin
    (* Grow by doubling; waiters are bounded by cores x registers, so
       growth is rare and amortizes to nothing. *)
    let wc = Array.make (2 * cap) 0 and wd = Array.make (2 * cap) 0 in
    for k = 0 to qs.w_len - 1 do
      let i = qs.w_head + k in
      let i = if i >= cap then i - cap else i in
      wc.(k) <- qs.waiter_core.(i);
      wd.(k) <- qs.waiter_dst.(i)
    done;
    qs.waiter_core <- wc;
    qs.waiter_dst <- wd;
    qs.w_head <- 0
  end;
  let cap = Array.length qs.waiter_core in
  let tail = qs.w_head + qs.w_len in
  let tail = if tail >= cap then tail - cap else tail in
  qs.waiter_core.(tail) <- core;
  qs.waiter_dst.(tail) <- dst;
  qs.w_len <- qs.w_len + 1

let waiter_head_core qs = qs.waiter_core.(qs.w_head)
let waiter_head_dst qs = qs.waiter_dst.(qs.w_head)

let waiter_drop qs =
  let h = qs.w_head + 1 in
  qs.w_head <- (if h >= Array.length qs.waiter_core then 0 else h);
  qs.w_len <- qs.w_len - 1

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
  (* jit kernel per-cycle issue-group scratch: per-class slots consumed
     (indexed Calu=0, Cfp=1, Cmem=2, Cbr=3, Cnone=4) and instructions
     issued this cycle. Preallocated once; reset by the step function. *)
  k_cnt : int array;
  mutable k_issued : int;
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
     same charge; [Sim.step_core_jit] replays it without the call. *)
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
      k_cnt = Array.make 5 0;
      k_issued = 0;
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

(* Deliver a produced value: to a waiting consumer if any, else enqueue. *)
let produce_to st q value =
  st.stamp <- st.stamp + 1;
  let qs = st.queues.(q) in
  if qs.w_len > 0 then begin
    let ready = st.now + st.mc.Config.sa_latency in
    let c = st.cores.(waiter_head_core qs) in
    let dst = waiter_head_dst qs in
    waiter_drop qs;
    if dst >= 0 then begin
      c.regs.(dst) <- value;
      c.reg_ready.(dst) <- ready
    end
    else begin
      c.outstanding_syncs <- c.outstanding_syncs - 1;
      if ready > c.fence_ready then c.fence_ready <- ready
    end
  end
  else begin
    entry_push qs ~value ~ready:(st.now + st.mc.Config.sa_latency);
    qs.logical_occupancy <- qs.logical_occupancy + 1;
    if qs.logical_occupancy > st.queue_peak.(q) then
      st.queue_peak.(q) <- qs.logical_occupancy
  end

let cache_load st core addr =
  let mc = st.mc in
  let byte_addr = addr * mc.Config.word_bytes in
  core.s_loads <- core.s_loads + 1;
  if Cache.access core.l1 ~addr:byte_addr then begin
    core.s_l1 <- core.s_l1 + 1;
    mc.Config.l1_latency
  end
  else if Cache.access core.l2 ~addr:byte_addr then begin
    core.s_l2 <- core.s_l2 + 1;
    mc.Config.l2_latency
  end
  else if Cache.access st.l3 ~addr:byte_addr then begin
    core.s_l3 <- core.s_l3 + 1;
    mc.Config.l3_latency
  end
  else begin
    core.s_mem <- core.s_mem + 1;
    mc.Config.mem_latency
  end

let cache_store st core addr =
  let byte_addr = addr * st.mc.Config.word_bytes in
  ignore (Cache.access core.l1 ~addr:byte_addr);
  ignore (Cache.access core.l2 ~addr:byte_addr);
  ignore (Cache.access st.l3 ~addr:byte_addr)
