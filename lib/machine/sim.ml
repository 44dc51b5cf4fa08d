open Gmt_ir
module S = Simstate

type core_stats = {
  instrs : int;
  comm_instrs : int;
  sync_instrs : int;
  stall_data : int;
  stall_queue : int;
  stall_ports : int;
  loads : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  mem_accesses : int;
  finish_cycle : int;
}

type result = {
  cycles : int;
  memory : int array;
  per_core : core_stats array;
  deadlocked : bool;
  fuel_exhausted : bool;
  idle_peak : int;
  deadlock_threshold : int;
  stall_attr : int array array;
  queue_peak : int array;
  deadlock_report : string list;
}

(* Cycle-attribution buckets live in Simstate (shared with the jit
   closure compiler); re-exported here as the public names. *)
let bucket_busy = S.bucket_busy
let bucket_done = S.bucket_done
let stall_labels = S.stall_labels
let n_stall_buckets = S.n_stall_buckets

(* The longest legitimate stretch during which no core issues anything is
   bounded by one main-memory access plus the synchronization-array
   round-trip for a full queue; anything far beyond that is a blocked
   queue cycle, i.e. deadlock. Derived from the machine config instead of
   a magic constant so toy configs with huge latencies still terminate
   (and aggressive ones deadlock-check quickly). *)
let deadlock_threshold (mc : Config.t) =
  (4 * mc.mem_latency) + (mc.queue_size * (mc.sa_latency + 1)) + 256

let is_pow2 n = n > 0 && n land (n - 1) = 0

let default_fuel = 100_000_000

(* Charge [n] replayed cycles of a blocked core to the stat counter its
   blocked attempt charged (none for a finished core). *)
let[@inline] charge_stall (c : S.core) n =
  let stat = c.S.blocked_stat in
  if stat = S.stat_data then c.S.s_stall_data <- c.S.s_stall_data + n
  else if stat = S.stat_queue then c.S.s_stall_queue <- c.S.s_stall_queue + n
  else if stat = S.stat_ports then c.S.s_stall_ports <- c.S.s_stall_ports + n

let run ?(fuel = default_fuel) ?(init_regs = []) ?(init_mem = [])
    (mc : Config.t) (p : Mtprog.t) ~mem_size =
  if not (is_pow2 mem_size) then invalid_arg "Sim.run: mem_size not 2^k";
  let n_cores = Array.length p.Mtprog.threads in
  if n_cores > mc.n_cores then invalid_arg "Sim.run: more threads than cores";
  if mc.issue_width > S.max_issue_width then
    invalid_arg "Sim.run: issue_width above 255";
  let st = S.make mc p ~init_regs ~init_mem ~mem_size in
  let memory = st.S.memory in
  let cores = st.S.cores and queues = st.S.queues in
  (* Decoded images of each thread (decode once, index every cycle). *)
  let dprogs =
    Array.map (fun (f : Func.t) -> Decode.func mc f) p.Mtprog.threads
  in
  Array.iteri (fun i c -> c.S.pc <- dprogs.(i).Decode.entry_pc) cores;
  (* Each thread's decoded code compiled once into fused guard+writeback
     closures (see [Jit]). *)
  let jprogs = Array.mapi (fun ci dp -> Jit.compile st ci dp) dprogs in
  let idle_cycles = ref 0 in
  let idle_peak = ref 0 in
  let deadlocked = ref false in
  let threshold = deadlock_threshold mc in
  let stall_attr =
    Array.init n_cores (fun _ -> Array.make n_stall_buckets 0)
  in
  let queue_peak = st.S.queue_peak in
  (* One closure call per issue attempt; the closures charge stats, count
     their slots and the group's issues in [k_slots], and record
     wake/blocked_stat themselves (see [Jit]). Tail-recursive so the
     issue group runs without a single allocation. *)
  let group_full = mc.issue_width lsl S.issued_shift in
  let rec issue_jit (code : (unit -> int) array) c =
    let r = code.(c.S.pc) () in
    if r = 0 then
      if c.S.k_slots >= group_full then bucket_busy else issue_jit code c
    else if r > 0 then
      (* 1 = control transfer, 2 = return: either way the issue group
         ends on a busy cycle without another closure call. *)
      bucket_busy
    else if c.S.k_slots <> 0 then bucket_busy
    else (-r) - 1
  in
  (* One core's cycle, returning its bucket: [bucket_done] once it has
     finished; while its block is provably frozen, the recorded outcome,
     replayed with a handful of field reads and no call; otherwise a
     fresh issue group. Inlined into each loop below.

     Frozen stalls replay the cached outcome without re-running the
     guard in two provably-identical cases: (a) finite [wake]: only the
     two latency-style blocks set one (operand not ready until [wake];
     fence drain with no outstanding syncs), and both depend solely on
     state no other core can change while this one is blocked —
     cross-core deliveries only touch pending-marked registers, which
     force wake = max_int; (b) the head blocked on a cross-core
     condition (pending operand, sync drain, full queue) and the global
     event stamp has not moved, so no produce was delivered and no entry
     consumed anywhere since the guard last ran — its inputs are
     bit-identical. Either way the replay charges the same stat and
     bucket the evaluation would. *)
  let[@inline] step (c : S.core) code now =
    if c.S.finished then begin
      c.S.blocked_stat <- S.stat_none;
      bucket_done
    end
    else if
      (c.S.wake > now && c.S.wake <> max_int) || c.S.frozen_stamp = st.S.stamp
    then begin
      (if c.S.blocked_stat = S.stat_data then
         c.S.s_stall_data <- c.S.s_stall_data + 1
       else c.S.s_stall_queue <- c.S.s_stall_queue + 1);
      c.S.replay_bucket
    end
    else begin
      c.S.k_slots <- 0;
      issue_jit code c
    end
  in
  let fuel_exhausted = ref false in
  let sa_ports = mc.sa_ports in
  (try
     if n_cores = 1 then begin
       (* Single-core loop: same cycle-for-cycle behaviour as the
          generic loop below (single-thread cells are a fifth of the
          matrix), with the per-core dispatch, scans and ref juggling
          specialized away. A core that returns does so from a busy
          cycle, so the loop head's finished check exits exactly where
          the generic loop's finished count would. *)
       let c0 = cores.(0) in
       let code0 = jprogs.(0) in
       let attr0 = stall_attr.(0) in
       while (not c0.S.finished) && not !deadlocked do
         if st.S.now >= fuel then begin
           fuel_exhausted := true;
           raise_notrace Exit
         end;
         st.S.sa_ports_left <- sa_ports;
         let bucket = step c0 code0 st.S.now in
         attr0.(bucket) <- attr0.(bucket) + 1;
         if bucket = bucket_busy then idle_cycles := 0
         else begin
           incr idle_cycles;
           if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
           if !idle_cycles > threshold then deadlocked := true
         end;
         st.S.now <- st.S.now + 1;
         if bucket <> bucket_busy && not !deadlocked then begin
           (* Idle fast-forward, single-core shape: a non-busy cycle here
              means no core issued (the core can't have finished on a
              non-busy cycle, so it is blocked with a recorded wake). *)
           let w = c0.S.wake in
           let skip =
             let s = if w = max_int then max_int else w - st.S.now in
             let s = if s > fuel - st.S.now then fuel - st.S.now else s in
             let t = threshold - !idle_cycles in
             if s > t then t else s
           in
           if skip > 0 then begin
             attr0.(bucket) <- attr0.(bucket) + skip;
             charge_stall c0 skip;
             idle_cycles := !idle_cycles + skip;
             if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
             st.S.now <- st.S.now + skip
           end
         end
       done
     end
     else if n_cores = 2 then begin
       (* Two-core loop: the paper's dual-core machine, which every MT
          cell of the matrix and every served run simulates. Same
          cycle-for-cycle behaviour as the generic loop below, with both
          cores, their closure arrays and attribution rows in locals and
          no per-core dispatch, finished count or bucket array. Core 0
          steps before core 1, as there: its produces and consumes move
          the stamp that core 1's frozen check reads in the same cycle.
          No core finishes on a non-busy cycle, so the loop head's
          finished test exits exactly where the generic loop's count
          would. *)
       let c0 = cores.(0) and c1 = cores.(1) in
       let code0 = jprogs.(0) and code1 = jprogs.(1) in
       let attr0 = stall_attr.(0) and attr1 = stall_attr.(1) in
       while (not (c0.S.finished && c1.S.finished)) && not !deadlocked do
         let now = st.S.now in
         if now >= fuel then begin
           fuel_exhausted := true;
           raise_notrace Exit
         end;
         st.S.sa_ports_left <- sa_ports;
         let b0 = step c0 code0 now in
         attr0.(b0) <- attr0.(b0) + 1;
         let b1 = step c1 code1 now in
         attr1.(b1) <- attr1.(b1) + 1;
         let now = now + 1 in
         st.S.now <- now;
         if b0 = bucket_busy || b1 = bucket_busy then idle_cycles := 0
         else begin
           incr idle_cycles;
           if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
           if !idle_cycles > threshold then deadlocked := true
           else begin
             (* The generic loop's idle fast-forward over two cores. *)
             let w0 = if c0.S.finished then max_int else c0.S.wake in
             let w1 = if c1.S.finished then max_int else c1.S.wake in
             let w = if w0 < w1 then w0 else w1 in
             let skip =
               let s = if w = max_int then max_int else w - now in
               let s = if s > fuel - now then fuel - now else s in
               let t = threshold - !idle_cycles in
               if s > t then t else s
             in
             if skip > 0 then begin
               attr0.(b0) <- attr0.(b0) + skip;
               charge_stall c0 skip;
               attr1.(b1) <- attr1.(b1) + skip;
               charge_stall c1 skip;
               idle_cycles := !idle_cycles + skip;
               if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
               st.S.now <- now + skip
             end
           end
         end
       done
     end
     else begin
       (* Per-core bucket of the current cycle; the idle fast-forward
          replays these in bulk over provably frozen cycles. *)
       let last_bucket = Array.make n_cores bucket_done in
       (* [n_fin] counts cores observed finished after their step this
          cycle, so the loop condition needs no separate all-cores scan;
          a core that returns during a cycle is already [finished] when
          counted. *)
       let n_fin = ref 0 in
       while !n_fin < n_cores && not !deadlocked do
         if st.S.now >= fuel then begin
           fuel_exhausted := true;
           raise_notrace Exit
         end;
         st.S.sa_ports_left <- sa_ports;
         let any = ref false in
         n_fin := 0;
         for ci = 0 to n_cores - 1 do
           let c = cores.(ci) in
           let bucket = step c jprogs.(ci) st.S.now in
           last_bucket.(ci) <- bucket;
           let attr = stall_attr.(ci) in
           attr.(bucket) <- attr.(bucket) + 1;
           if bucket = bucket_busy then any := true;
           if c.S.finished then incr n_fin
         done;
         if !any then idle_cycles := 0
         else begin
           incr idle_cycles;
           if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
           if !idle_cycles > threshold then deadlocked := true
         end;
         st.S.now <- st.S.now + 1;
         (* Idle fast-forward: when no core issued, the machine state
            is frozen — nothing changes from one cycle to the next except
            the cycle counter — until the earliest [wake] recorded by a
            blocking guard (operand or fence latency). Every intervening
            cycle provably repeats this one's buckets and stall stats, so
            replay them in bulk, capped so the fuel check and the deadlock
            watchdog fire at exactly the cycle they would have. *)
         if (not !any) && not !deadlocked then begin
           let w = ref max_int in
           for ci = 0 to n_cores - 1 do
             let c = cores.(ci) in
             if (not c.S.finished) && c.S.wake < !w then w := c.S.wake
           done;
           let skip =
             let s = if !w = max_int then max_int else !w - st.S.now in
             let s = if s > fuel - st.S.now then fuel - st.S.now else s in
             let t = threshold - !idle_cycles in
             if s > t then t else s
           in
           if skip > 0 then begin
             for ci = 0 to n_cores - 1 do
               let attr = stall_attr.(ci) in
               let b = last_bucket.(ci) in
               attr.(b) <- attr.(b) + skip;
               charge_stall cores.(ci) skip
             done;
             idle_cycles := !idle_cycles + skip;
             if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
             st.S.now <- st.S.now + skip
           end
         end
       done
     end
   with Exit -> ());
  (* When the idle watchdog fired, name each stuck core and the queue it
     is blocked on: a core waiting on an empty queue sits in that queue's
     waiter list (stall-on-use consumes issue before blocking); a core
     stuck producing is parked on a produce to a full queue. *)
  let deadlock_report =
    if not !deadlocked then []
    else begin
      let lines = ref [] in
      for ci = n_cores - 1 downto 0 do
        let c = cores.(ci) in
        if not c.S.finished then begin
          let waiting = ref None in
          Array.iteri
            (fun q qs ->
              S.waiter_iter
                (fun ~core ~dst ->
                  if core = ci && !waiting = None then
                    waiting :=
                      Some (q, if dst >= 0 then "consume" else "consume.sync"))
                qs)
            queues;
          let line =
            match !waiting with
            | Some (q, what) ->
              Printf.sprintf "core %d: blocked on %s from empty queue %d"
                ci what q
            | None ->
              let producing_to =
                match dprogs.(ci).Decode.code.(c.S.pc).Decode.dop with
                | Decode.Dproduce (q, _) | Decode.Dproduce_sync q -> Some q
                | _ -> None
              in
              (match producing_to with
              | Some q ->
                Printf.sprintf
                  "core %d: blocked producing to full queue %d \
                   (occupancy %d/%d)"
                  ci q queues.(q).S.logical_occupancy mc.queue_size
              | None ->
                Printf.sprintf "core %d: stalled with no runnable instruction"
                  ci)
          in
          lines := line :: !lines
        end
      done;
      !lines
    end
  in
  {
    cycles = st.S.now;
    memory;
    per_core =
      Array.map
        (fun c ->
          {
            instrs = c.S.s_instrs;
            comm_instrs = c.S.s_comm;
            sync_instrs = c.S.s_sync;
            stall_data = c.S.s_stall_data;
            stall_queue = c.S.s_stall_queue;
            stall_ports = c.S.s_stall_ports;
            loads = c.S.s_loads;
            l1_hits = c.S.s_l1;
            l2_hits = c.S.s_l2;
            l3_hits = c.S.s_l3;
            mem_accesses = c.S.s_mem;
            finish_cycle = c.S.finish_cycle;
          })
        cores;
    deadlocked = !deadlocked;
    fuel_exhausted = !fuel_exhausted;
    idle_peak = !idle_peak;
    deadlock_threshold = threshold;
    stall_attr;
    queue_peak;
    deadlock_report;
  }

let run_single ?fuel ?init_regs ?init_mem mc (f : Func.t) ~mem_size =
  let p = Mtprog.make ~name:f.Func.name ~threads:[| f |] ~n_queues:0 in
  run ?fuel ?init_regs ?init_mem mc p ~mem_size
