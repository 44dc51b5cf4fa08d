(* Closure compilation ("threaded code") of decoded programs for the
   cycle simulator.

   Each decoded instruction becomes ONE OCaml closure fusing the whole
   issue attempt: the structural-slot check, the operand/WAW scan
   (unrolled over the instruction's 0-2 uses and 0-1 defs, captured as
   plain ints), the acquire-fence, SA-port and queue-capacity guards,
   and the writeback itself. The guard prologue is specialized per
   opcode at compile time — a plain ALU op checks only its slot and its
   operands; the fence test is only emitted for memory ops, the SA-port
   and queue-capacity tests only for communication ops — and the
   writeback is inlined in the same closure body, so the hot issue path
   runs without a single inner call, opcode match, or allocation.
   Arithmetic is specialized per operator ([Instr.eval_binop] survives
   only for the rare div/rem/shift cases). Blocked outcomes share
   per-core cold helpers. The slot check reads one word,
   [Simstate.core.k_slots], which packs every class's slot count with
   the group's issued count: an issuing closure tests its class's field
   and bumps both counts with one add.

   Return-code contract (read by [Sim.run]'s issue loops):
   - [0]  issued; the closure advanced [pc] itself
   - [1]  issued a control transfer (fetch redirect ends the group)
   - [2]  issued a return; the core is finished and the group ends
   - [<0] blocked; the code is [-(bucket + 1)] and the closure has
          already charged the stall stat and recorded [wake],
          [blocked_stat] and the freeze/replay state for [Sim]'s replay
          paths.

   A blocking closure's [wake] is the first cycle at which re-running
   its guard could give a different answer, assuming no other core
   issues in between: the max readiness cycle over late operands, the
   fence-release cycle, or [max_int] when only another core's produce or
   consume can unblock it. In the [max_int] case the closure also
   freezes the block against the global event stamp (fresh-head
   evaluations only), which [Sim.run]'s loops replay until a
   communication event moves the stamp. Every communication issue bumps
   the stamp — queue and SA-port state is only disturbed by
   communication, so an unchanged stamp proves a frozen guard's inputs
   are bit-identical. *)

module S = Simstate
open Gmt_ir

let blk_latency = -(S.bucket_latency + 1)
let blk_consume_empty = -(S.bucket_consume_empty + 1)
let blk_produce_full = -(S.bucket_produce_full + 1)
let blk_ports = -(S.bucket_ports + 1)

let class_ix = function
  | Decode.Calu -> 0
  | Decode.Cfp -> 1
  | Decode.Cmem -> 2
  | Decode.Cbr -> 3
  | Decode.Cnone -> 4

let issued_one = 1 lsl S.issued_shift

(* ---- The issue path's queue and cache helpers ----

   They live beside their only caller rather than in [Simstate]: a dev
   build compiles every module [-opaque], which turns each call from a
   closure into another module into an unknown application, while these
   are direct calls. *)

let entry_push qs ~value ~ready =
  let cap = Array.length qs.S.entry_value in
  let tail = qs.S.e_head + qs.S.e_len in
  let tail = if tail >= cap then tail - cap else tail in
  qs.S.entry_value.(tail) <- value;
  qs.S.entry_ready.(tail) <- ready;
  qs.S.e_len <- qs.S.e_len + 1

let entry_head_value qs = qs.S.entry_value.(qs.S.e_head)
let entry_head_ready qs = qs.S.entry_ready.(qs.S.e_head)

let entry_drop qs =
  let h = qs.S.e_head + 1 in
  qs.S.e_head <- (if h >= Array.length qs.S.entry_value then 0 else h);
  qs.S.e_len <- qs.S.e_len - 1

let waiter_push qs ~core ~dst =
  let cap = Array.length qs.S.waiter_core in
  if qs.S.w_len = cap then begin
    (* Grow by doubling; waiters are bounded by cores x registers, so
       growth is rare and amortizes to nothing. *)
    let wc = Array.make (2 * cap) 0 and wd = Array.make (2 * cap) 0 in
    for k = 0 to qs.S.w_len - 1 do
      let i = qs.S.w_head + k in
      let i = if i >= cap then i - cap else i in
      wc.(k) <- qs.S.waiter_core.(i);
      wd.(k) <- qs.S.waiter_dst.(i)
    done;
    qs.S.waiter_core <- wc;
    qs.S.waiter_dst <- wd;
    qs.S.w_head <- 0
  end;
  let cap = Array.length qs.S.waiter_core in
  let tail = qs.S.w_head + qs.S.w_len in
  let tail = if tail >= cap then tail - cap else tail in
  qs.S.waiter_core.(tail) <- core;
  qs.S.waiter_dst.(tail) <- dst;
  qs.S.w_len <- qs.S.w_len + 1

let waiter_drop qs =
  let h = qs.S.w_head + 1 in
  qs.S.w_head <- (if h >= Array.length qs.S.waiter_core then 0 else h);
  qs.S.w_len <- qs.S.w_len - 1

(* Deliver a produced value: to the oldest waiting consumer if any
   (register write or fence release one SA latency out), else enqueue
   and track the occupancy peak. *)
let produce_to st q value =
  st.S.stamp <- st.S.stamp + 1;
  let qs = st.S.queues.(q) in
  if qs.S.w_len > 0 then begin
    let ready = st.S.now + st.S.mc.Config.sa_latency in
    let c = st.S.cores.(qs.S.waiter_core.(qs.S.w_head)) in
    let dst = qs.S.waiter_dst.(qs.S.w_head) in
    waiter_drop qs;
    if dst >= 0 then begin
      c.S.regs.(dst) <- value;
      c.S.reg_ready.(dst) <- ready
    end
    else begin
      c.S.outstanding_syncs <- c.S.outstanding_syncs - 1;
      if ready > c.S.fence_ready then c.S.fence_ready <- ready
    end
  end
  else begin
    entry_push qs ~value ~ready:(st.S.now + st.S.mc.Config.sa_latency);
    qs.S.logical_occupancy <- qs.S.logical_occupancy + 1;
    if qs.S.logical_occupancy > st.S.queue_peak.(q) then
      st.S.queue_peak.(q) <- qs.S.logical_occupancy
  end

(* Walk the cache hierarchy for a load at word address [addr]; bumps the
   per-level hit counters and returns the hit latency. *)
let cache_load st core addr =
  let mc = st.S.mc in
  let byte_addr = addr * mc.Config.word_bytes in
  core.S.s_loads <- core.S.s_loads + 1;
  if Cache.access core.S.l1 ~addr:byte_addr then begin
    core.S.s_l1 <- core.S.s_l1 + 1;
    mc.Config.l1_latency
  end
  else if Cache.access core.S.l2 ~addr:byte_addr then begin
    core.S.s_l2 <- core.S.s_l2 + 1;
    mc.Config.l2_latency
  end
  else if Cache.access st.S.l3 ~addr:byte_addr then begin
    core.S.s_l3 <- core.S.s_l3 + 1;
    mc.Config.l3_latency
  end
  else begin
    core.S.s_mem <- core.S.s_mem + 1;
    mc.Config.mem_latency
  end

(* Touch the hierarchy for a store (stores commit at issue). *)
let cache_store st core addr =
  let byte_addr = addr * st.S.mc.Config.word_bytes in
  ignore (Cache.access core.S.l1 ~addr:byte_addr);
  ignore (Cache.access core.S.l2 ~addr:byte_addr);
  ignore (Cache.access st.S.l3 ~addr:byte_addr)

let compile (st : S.t) ci (dp : Decode.t) : (unit -> int) array =
  let mc = st.S.mc in
  let c = st.S.cores.(ci) in
  let regs = c.S.regs and rr = c.S.reg_ready in
  let queues = st.S.queues in
  let memory = st.S.memory and mask = st.S.mask in
  let qsize = mc.Config.queue_size and sa_lat = mc.Config.sa_latency in
  let pending_mark = S.pending_mark in
  (* A class's slot limit, placed in its [k_slots] field. No class uses
     more slots than its group issues, and a closure runs only while
     fewer than [issue_width] have issued, so capping the limit at the
     issue width changes no outcome and keeps it inside its byte. *)
  let width = max 1 mc.Config.issue_width in
  let class_limit = function
    | Decode.Calu -> mc.Config.alu_units
    | Decode.Cfp -> mc.Config.fp_units
    | Decode.Cmem -> mc.Config.mem_ports
    | Decode.Cbr -> mc.Config.branch_units
    | Decode.Cnone -> max_int (* never a structural stall; count unread *)
  in
  (* Cold blocked outcomes, shared across this core's closures. Each
     charges the stall stat and records wake/blocked_stat (and, for
     cross-core blocks on a fresh head, the stamp freeze) exactly as the
     branch of the generic guard it replaces. *)
  let block_ports () =
    c.S.s_stall_ports <- c.S.s_stall_ports + 1;
    c.S.blocked_stat <- S.stat_ports;
    c.S.wake <- max_int;
    blk_ports
  in
  let block_data_pending () =
    c.S.s_stall_data <- c.S.s_stall_data + 1;
    c.S.blocked_stat <- S.stat_data;
    c.S.wake <- max_int;
    (* Only a produce delivery can lift this; freeze the block
       (fresh-head evaluations only — a mid-group block restarts with an
       empty slot budget, so its outcome is not the one the next cycle
       would recompute). *)
    if c.S.k_slots = 0 then begin
      c.S.frozen_stamp <- st.S.stamp;
      c.S.replay_bucket <- S.bucket_consume_empty
    end;
    blk_consume_empty
  in
  let block_data_latency w =
    c.S.s_stall_data <- c.S.s_stall_data + 1;
    c.S.blocked_stat <- S.stat_data;
    c.S.wake <- w;
    c.S.replay_bucket <- S.bucket_latency;
    blk_latency
  in
  let block_fence () =
    c.S.s_stall_queue <- c.S.s_stall_queue + 1;
    c.S.blocked_stat <- S.stat_queue;
    if c.S.outstanding_syncs > 0 then begin
      c.S.wake <- max_int;
      if c.S.k_slots = 0 then begin
        c.S.frozen_stamp <- st.S.stamp;
        c.S.replay_bucket <- S.bucket_consume_empty
      end;
      blk_consume_empty
    end
    else begin
      c.S.wake <- c.S.fence_ready;
      c.S.replay_bucket <- S.bucket_latency;
      blk_latency
    end
  in
  let block_produce_full () =
    c.S.s_stall_queue <- c.S.s_stall_queue + 1;
    c.S.blocked_stat <- S.stat_queue;
    c.S.wake <- max_int;
    if c.S.k_slots = 0 then begin
      c.S.frozen_stamp <- st.S.stamp;
      c.S.replay_bucket <- S.bucket_produce_full
    end;
    blk_produce_full
  in
  let compile_one pc (di : Decode.dinstr) =
    (* The issue guard's slot-word constants: [field] masks this class's
       count, [full] is its limit in place, and [inc] counts one issue
       of the class and one of the group. A [Cnone] op is counted in the
       group only. *)
    let sh = S.slot_shift (class_ix di.Decode.cls) in
    let field = 0xff lsl sh in
    let full = min (class_limit di.Decode.cls) width lsl sh in
    let inc = (1 lsl sh) + issued_one in
    let lat = di.Decode.lat in
    let next_pc = pc + 1 in
    (* ALU/FP op with one def and one or two uses: slot check, operand
       scan, writeback of [v ()]'s value — except [v] is inlined below by
       specializing per operator, so each match arm is a complete flat
       closure. The duplicated-register case (x = y dedups [uses]) needs
       no special shape: checking the same readiness cell twice gives
       the same verdict as checking it once. *)
    match di.Decode.dop with
    | Decode.Dconst (d, k) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else if rr.(d) >= pending_mark then block_data_pending ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          regs.(d) <- k;
          rr.(d) <- st.S.now + lat;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dcopy (d, s) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(s) in
          if r0 > now || rr.(d) >= pending_mark then
            if rr.(d) >= pending_mark || r0 >= pending_mark then
              block_data_pending ()
            else block_data_latency r0
          else begin
            c.S.k_slots <- c.S.k_slots + inc;
            c.S.s_instrs <- c.S.s_instrs + 1;
            regs.(d) <- regs.(s);
            rr.(d) <- now + lat;
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Dunop (u, d, s) ->
      (* The operator is baked into each closure body (no inner call;
         without flambda an [op] parameter would stay an indirect call).
         [unop_case] below is a macro in spirit: every arm passes it a
         syntactically distinct closure whose only difference is the
         computed expression, so each operator gets its own static code
         with the guard and writeback inlined. *)
      let unop_case (full : unit -> int) = full in
      (match u with
      | Instr.Neg | Instr.Fneg ->
        unop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- -regs.(s);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Not ->
        unop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- lnot regs.(s);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Abs | Instr.Fsqrt ->
        unop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- Instr.eval_unop u regs.(s);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end))
    | Decode.Dbinop (b, d, x, y) ->
      (* Same scheme as [Dunop]: one flat closure per operator family.
         The guard prologue is repeated verbatim in each arm so the hot
         path has no inner call; only div/rem/shift fall back to
         [Instr.eval_binop]. *)
      let binop_case (full : unit -> int) = full in
      (match b with
      | Instr.Add | Instr.Fadd ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) + regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Sub | Instr.Fsub ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) - regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Mul | Instr.Fmul ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) * regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.And ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) land regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Or ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) lor regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Xor ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) lxor regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Lt ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) < regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Le ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) <= regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Eq ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) = regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Ne ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) <> regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Gt ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) > regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Ge ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) >= regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Min | Instr.Fmin ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <-
                  (if regs.(x) <= regs.(y) then regs.(x) else regs.(y));
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Max | Instr.Fmax ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <-
                  (if regs.(x) >= regs.(y) then regs.(x) else regs.(y));
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Div | Instr.Rem | Instr.Shl | Instr.Shr | Instr.Fdiv ->
        binop_case (fun () ->
            if c.S.k_slots land field >= full then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(x) and r1 = rr.(y) in
              if r0 > now || r1 > now || rr.(d) >= pending_mark then
                if
                  rr.(d) >= pending_mark
                  || (r0 > now && r0 >= pending_mark)
                  || (r1 > now && r1 >= pending_mark)
                then block_data_pending ()
                else block_data_latency (if r0 >= r1 then r0 else r1)
              else begin
                c.S.k_slots <- c.S.k_slots + inc;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- Instr.eval_binop b regs.(x) regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end))
    | Decode.Dload (d, base, off) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(base) in
          if r0 > now || rr.(d) >= pending_mark then
            if rr.(d) >= pending_mark || r0 >= pending_mark then
              block_data_pending ()
            else block_data_latency r0
          else if c.S.outstanding_syncs <> 0 || c.S.fence_ready > now then
            block_fence ()
          else begin
            c.S.k_slots <- c.S.k_slots + inc;
            c.S.s_instrs <- c.S.s_instrs + 1;
            let addr = (regs.(base) + off) land mask in
            regs.(d) <- memory.(addr);
            rr.(d) <- now + cache_load st c addr;
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Dstore (base, off, s) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(base) and r1 = rr.(s) in
          if r0 > now || r1 > now then
            if
              (r0 > now && r0 >= pending_mark)
              || (r1 > now && r1 >= pending_mark)
            then block_data_pending ()
            else block_data_latency (if r0 >= r1 then r0 else r1)
          else if c.S.outstanding_syncs <> 0 || c.S.fence_ready > now then
            block_fence ()
          else begin
            c.S.k_slots <- c.S.k_slots + inc;
            c.S.s_instrs <- c.S.s_instrs + 1;
            let addr = (regs.(base) + off) land mask in
            memory.(addr) <- regs.(s);
            cache_store st c addr;
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Djump t ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          c.S.pc <- t;
          1
        end
    | Decode.Dbranch (cnd, t1, t2) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(cnd) in
          if r0 > now then
            if r0 >= pending_mark then block_data_pending ()
            else block_data_latency r0
          else begin
            c.S.k_slots <- c.S.k_slots + inc;
            c.S.s_instrs <- c.S.s_instrs + 1;
            c.S.pc <- (if regs.(cnd) <> 0 then t1 else t2);
            1
          end
        end
    | Decode.Dreturn ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          c.S.finished <- true;
          c.S.finish_cycle <- st.S.now;
          2
        end
    | Decode.Dproduce (q, s) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(s) in
          if r0 > now then
            if r0 >= pending_mark then block_data_pending ()
            else block_data_latency r0
          else if st.S.sa_ports_left <= 0 then block_ports ()
          else if queues.(q).S.logical_occupancy >= qsize then
            block_produce_full ()
          else begin
            c.S.k_slots <- c.S.k_slots + inc;
            c.S.s_instrs <- c.S.s_instrs + 1;
            st.S.sa_ports_left <- st.S.sa_ports_left - 1;
            c.S.s_comm <- c.S.s_comm + 1;
            produce_to st q regs.(s);
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Dproduce_sync q ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else if queues.(q).S.logical_occupancy >= qsize then
          block_produce_full ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          c.S.s_sync <- c.S.s_sync + 1;
          produce_to st q 1;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dconsume (d, q) ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else if rr.(d) >= pending_mark then block_data_pending ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          let qs = queues.(q) in
          if qs.S.e_len > 0 then begin
            st.S.stamp <- st.S.stamp + 1;
            let v = entry_head_value qs and ready = entry_head_ready qs in
            entry_drop qs;
            qs.S.logical_occupancy <- qs.S.logical_occupancy - 1;
            regs.(d) <- v;
            let m = st.S.now + sa_lat in
            rr.(d) <- (if ready > m then ready else m)
          end
          else begin
            (* Stall-on-use: issue now, value arrives later. Bumps the
               stamp too: this consumed an SA port, and a frozen
               produce-full guard sits behind the port check. *)
            st.S.stamp <- st.S.stamp + 1;
            waiter_push qs ~core:ci ~dst:d;
            rr.(d) <- pending_mark
          end;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dconsume_sync q ->
      fun () ->
        if c.S.k_slots land field >= full then block_ports ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else begin
          c.S.k_slots <- c.S.k_slots + inc;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          c.S.s_sync <- c.S.s_sync + 1;
          let qs = queues.(q) in
          if qs.S.e_len > 0 then begin
            st.S.stamp <- st.S.stamp + 1;
            let ready = entry_head_ready qs in
            entry_drop qs;
            qs.S.logical_occupancy <- qs.S.logical_occupancy - 1;
            if ready > c.S.fence_ready then c.S.fence_ready <- ready
          end
          else begin
            st.S.stamp <- st.S.stamp + 1;
            waiter_push qs ~core:ci ~dst:(-1);
            c.S.outstanding_syncs <- c.S.outstanding_syncs + 1
          end;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dnop ->
      (* Cnone: no structural limit, no operands — always issues. *)
      fun () ->
        c.S.k_slots <- c.S.k_slots + issued_one;
        c.S.s_instrs <- c.S.s_instrs + 1;
        c.S.pc <- next_pc;
        0
  in
  Array.mapi compile_one dp.Decode.code
