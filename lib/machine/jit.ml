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
   per-core cold helpers.

   Return-code contract (shared with [Sim.step_core_jit]):
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
   evaluations only), which [Sim.step_core_jit] replays until a
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

let compile (st : S.t) ci (dp : Decode.t) : (unit -> int) array =
  let mc = st.S.mc in
  let c = st.S.cores.(ci) in
  let regs = c.S.regs and rr = c.S.reg_ready in
  let k_cnt = c.S.k_cnt in
  let queues = st.S.queues in
  let memory = st.S.memory and mask = st.S.mask in
  let qsize = mc.Config.queue_size and sa_lat = mc.Config.sa_latency in
  let pending_mark = S.pending_mark in
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
    if c.S.k_issued = 0 then begin
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
      if c.S.k_issued = 0 then begin
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
    if c.S.k_issued = 0 then begin
      c.S.frozen_stamp <- st.S.stamp;
      c.S.replay_bucket <- S.bucket_produce_full
    end;
    blk_produce_full
  in
  let compile_one pc (di : Decode.dinstr) =
    let cls = class_ix di.Decode.cls in
    let limit = class_limit di.Decode.cls in
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
        if k_cnt.(cls) >= limit then block_ports ()
        else if rr.(d) >= pending_mark then block_data_pending ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          regs.(d) <- k;
          rr.(d) <- st.S.now + lat;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dcopy (d, s) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(s) in
          if r0 > now || rr.(d) >= pending_mark then
            if rr.(d) >= pending_mark || r0 >= pending_mark then
              block_data_pending ()
            else block_data_latency r0
          else begin
            k_cnt.(cls) <- k_cnt.(cls) + 1;
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
            if k_cnt.(cls) >= limit then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- -regs.(s);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Not ->
        unop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- lnot regs.(s);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Abs | Instr.Fsqrt ->
        unop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
            else begin
              let now = st.S.now in
              let r0 = rr.(s) in
              if r0 > now || rr.(d) >= pending_mark then
                if rr.(d) >= pending_mark || r0 >= pending_mark then
                  block_data_pending ()
                else block_data_latency r0
              else begin
                k_cnt.(cls) <- k_cnt.(cls) + 1;
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
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) + regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Sub | Instr.Fsub ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) - regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Mul | Instr.Fmul ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) * regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.And ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) land regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Or ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) lor regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Xor ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- regs.(x) lxor regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Lt ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) < regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Le ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) <= regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Eq ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) = regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Ne ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) <> regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Gt ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) > regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Ge ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- (if regs.(x) >= regs.(y) then 1 else 0);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end)
      | Instr.Min | Instr.Fmin ->
        binop_case (fun () ->
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
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
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
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
            if k_cnt.(cls) >= limit then block_ports ()
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
                k_cnt.(cls) <- k_cnt.(cls) + 1;
                c.S.s_instrs <- c.S.s_instrs + 1;
                regs.(d) <- Instr.eval_binop b regs.(x) regs.(y);
                rr.(d) <- now + lat;
                c.S.pc <- next_pc;
                0
              end
            end))
    | Decode.Dload (d, base, off) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
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
            k_cnt.(cls) <- k_cnt.(cls) + 1;
            c.S.s_instrs <- c.S.s_instrs + 1;
            let addr = (regs.(base) + off) land mask in
            regs.(d) <- memory.(addr);
            rr.(d) <- now + S.cache_load st c addr;
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Dstore (base, off, s) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
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
            k_cnt.(cls) <- k_cnt.(cls) + 1;
            c.S.s_instrs <- c.S.s_instrs + 1;
            let addr = (regs.(base) + off) land mask in
            memory.(addr) <- regs.(s);
            S.cache_store st c addr;
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Djump t ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          c.S.pc <- t;
          1
        end
    | Decode.Dbranch (cnd, t1, t2) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else begin
          let now = st.S.now in
          let r0 = rr.(cnd) in
          if r0 > now then
            if r0 >= pending_mark then block_data_pending ()
            else block_data_latency r0
          else begin
            k_cnt.(cls) <- k_cnt.(cls) + 1;
            c.S.s_instrs <- c.S.s_instrs + 1;
            c.S.pc <- (if regs.(cnd) <> 0 then t1 else t2);
            1
          end
        end
    | Decode.Dreturn ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          c.S.finished <- true;
          c.S.finish_cycle <- st.S.now;
          2
        end
    | Decode.Dproduce (q, s) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
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
            k_cnt.(cls) <- k_cnt.(cls) + 1;
            c.S.s_instrs <- c.S.s_instrs + 1;
            st.S.sa_ports_left <- st.S.sa_ports_left - 1;
            c.S.s_comm <- c.S.s_comm + 1;
            S.produce_to st q regs.(s);
            c.S.pc <- next_pc;
            0
          end
        end
    | Decode.Dproduce_sync q ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else if queues.(q).S.logical_occupancy >= qsize then
          block_produce_full ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          c.S.s_sync <- c.S.s_sync + 1;
          S.produce_to st q 1;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dconsume (d, q) ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else if rr.(d) >= pending_mark then block_data_pending ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          let qs = queues.(q) in
          if qs.S.e_len > 0 then begin
            st.S.stamp <- st.S.stamp + 1;
            let v = S.entry_head_value qs and ready = S.entry_head_ready qs in
            S.entry_drop qs;
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
            S.waiter_push qs ~core:ci ~dst:d;
            rr.(d) <- pending_mark
          end;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dconsume_sync q ->
      fun () ->
        if k_cnt.(cls) >= limit then block_ports ()
        else if st.S.sa_ports_left <= 0 then block_ports ()
        else begin
          k_cnt.(cls) <- k_cnt.(cls) + 1;
          c.S.s_instrs <- c.S.s_instrs + 1;
          st.S.sa_ports_left <- st.S.sa_ports_left - 1;
          c.S.s_comm <- c.S.s_comm + 1;
          c.S.s_sync <- c.S.s_sync + 1;
          let qs = queues.(q) in
          if qs.S.e_len > 0 then begin
            st.S.stamp <- st.S.stamp + 1;
            let ready = S.entry_head_ready qs in
            S.entry_drop qs;
            qs.S.logical_occupancy <- qs.S.logical_occupancy - 1;
            if ready > c.S.fence_ready then c.S.fence_ready <- ready
          end
          else begin
            st.S.stamp <- st.S.stamp + 1;
            S.waiter_push qs ~core:ci ~dst:(-1);
            c.S.outstanding_syncs <- c.S.outstanding_syncs + 1
          end;
          c.S.pc <- next_pc;
          0
        end
    | Decode.Dnop ->
      (* Cnone: no structural limit, no operands — always issues. *)
      fun () ->
        k_cnt.(cls) <- k_cnt.(cls) + 1;
        c.S.s_instrs <- c.S.s_instrs + 1;
        c.S.pc <- next_pc;
        0
  in
  Array.mapi compile_one dp.Decode.code
