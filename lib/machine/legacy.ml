(* The original list-walking simulator, frozen as the equivalence
   oracle for the jit engine. This is the implementation
   the machine model was validated against: heap-allocated [Queue.t]
   queue state, [Instr.t list] block walking, a full guard re-evaluation
   every cycle for every core. Nothing here is optimized on purpose —
   the jit engine must reproduce its results bit-for-bit (including
   per-cycle stall attribution and queue peaks), so any change to this
   file changes what "correct" means. Tests and the bench harness call
   {!run} directly; it returns {!Sim}'s result type. *)

open Gmt_ir

(* Buckets mirror Simstate's; the codes must stay aligned since Sim
   re-exports one set of labels for every engine. *)
let bucket_busy = Simstate.bucket_busy
let bucket_latency = Simstate.bucket_latency
let bucket_consume_empty = Simstate.bucket_consume_empty
let bucket_produce_full = Simstate.bucket_produce_full
let bucket_ports = Simstate.bucket_ports
let bucket_done = Simstate.bucket_done
let n_stall_buckets = Simstate.n_stall_buckets

let classify = Decode.classify
let latency_of = Decode.latency_of

(* A queue entry or a waiting consumer, per queue. *)
type pending_consumer = { core : int; dst : Reg.t option (* None = sync *) }

type queue_state = {
  entries : (int * int) Queue.t; (* value, ready cycle *)
  waiters : pending_consumer Queue.t;
  mutable logical_occupancy : int;
      (* entries + produced-but-delivered slots; bounded by capacity *)
}

type core = {
  func : Func.t;
  regs : int array;
  reg_ready : int array;
  mutable rest : Instr.t list; (* remaining block body *)
  mutable finished : bool;
  mutable finish_cycle : int;
  l1 : Cache.t;
  l2 : Cache.t;
  (* acquire-fence state *)
  mutable outstanding_syncs : int;
  mutable fence_ready : int;
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

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* reg_ready value marking a consume that has issued but whose datum has
   not yet been produced. *)
let pending_mark = Simstate.pending_mark

let run ?(fuel = 100_000_000) ?(init_regs = []) ?(init_mem = [])
    (mc : Config.t) (p : Mtprog.t) ~mem_size =
  if not (is_pow2 mem_size) then invalid_arg "Sim.run: mem_size not 2^k";
  let mask = mem_size - 1 in
  let memory = Array.make mem_size 0 in
  List.iter (fun (a, v) -> memory.(a land mask) <- v) init_mem;
  let n_cores = Array.length p.Mtprog.threads in
  if n_cores > mc.n_cores then invalid_arg "Sim.run: more threads than cores";
  let l3 = Cache.create ~size:mc.l3_size ~assoc:mc.l3_assoc ~line:mc.l3_line in
  let mk_core (f : Func.t) =
    let regs = Array.make (max 1 f.n_regs) 0 in
    List.iter
      (fun (r, v) ->
        if Reg.to_int r < Array.length regs then regs.(Reg.to_int r) <- v)
      init_regs;
    {
      func = f;
      regs;
      reg_ready = Array.make (max 1 f.n_regs) 0;
      rest = Cfg.body f.cfg (Cfg.entry f.cfg);
      finished = false;
      finish_cycle = 0;
      l1 = Cache.create ~size:mc.l1_size ~assoc:mc.l1_assoc ~line:mc.l1_line;
      l2 = Cache.create ~size:mc.l2_size ~assoc:mc.l2_assoc ~line:mc.l2_line;
      outstanding_syncs = 0;
      fence_ready = 0;
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
  let cores = Array.map mk_core p.Mtprog.threads in
  let queues =
    Array.init (max 1 p.Mtprog.n_queues) (fun _ ->
        {
          entries = Queue.create ();
          waiters = Queue.create ();
          logical_occupancy = 0;
        })
  in
  let now = ref 0 in
  let idle_cycles = ref 0 in
  let idle_peak = ref 0 in
  let deadlocked = ref false in
  let threshold = Sim.deadlock_threshold mc in
  let stall_attr =
    Array.init n_cores (fun _ -> Array.make n_stall_buckets 0)
  in
  let queue_peak = Array.make (Array.length queues) 0 in
  let all_done () = Array.for_all (fun c -> c.finished) cores in
  (* Deliver a produced value: to a waiting consumer if any, else enqueue. *)
  let produce_to q value =
    let qs = queues.(q) in
    if not (Queue.is_empty qs.waiters) then begin
      let w = Queue.pop qs.waiters in
      let ready = !now + mc.sa_latency in
      let c = cores.(w.core) in
      match w.dst with
      | Some d ->
        c.regs.(Reg.to_int d) <- value;
        c.reg_ready.(Reg.to_int d) <- ready
      | None ->
        c.outstanding_syncs <- c.outstanding_syncs - 1;
        if ready > c.fence_ready then c.fence_ready <- ready
    end
    else begin
      Queue.push (value, !now + mc.sa_latency) qs.entries;
      qs.logical_occupancy <- qs.logical_occupancy + 1;
      if qs.logical_occupancy > queue_peak.(q) then
        queue_peak.(q) <- qs.logical_occupancy
    end
  in
  let cache_load core addr =
    let byte_addr = addr * mc.word_bytes in
    core.s_loads <- core.s_loads + 1;
    if Cache.access core.l1 ~addr:byte_addr then begin
      core.s_l1 <- core.s_l1 + 1;
      mc.l1_latency
    end
    else if Cache.access core.l2 ~addr:byte_addr then begin
      core.s_l2 <- core.s_l2 + 1;
      mc.l2_latency
    end
    else if Cache.access l3 ~addr:byte_addr then begin
      core.s_l3 <- core.s_l3 + 1;
      mc.l3_latency
    end
    else begin
      core.s_mem <- core.s_mem + 1;
      mc.mem_latency
    end
  in
  let cache_store core addr =
    let byte_addr = addr * mc.word_bytes in
    ignore (Cache.access core.l1 ~addr:byte_addr);
    ignore (Cache.access core.l2 ~addr:byte_addr);
    ignore (Cache.access l3 ~addr:byte_addr)
  in
  (* Per-cycle shared SA port budget. *)
  let sa_ports_left = ref 0 in
  (* Returns the cycle's attribution bucket for this core. The operand
     scan is full, non-short-circuiting, so the faster engines can
     mirror it exactly. *)
  let step_core ci =
    let c = cores.(ci) in
    if c.finished then bucket_done
    else begin
      let issued = ref 0 in
      let alu = ref 0 and fp = ref 0 and mem = ref 0 and br = ref 0 in
      let progressed = ref false in
      let blocked = ref false in
      let block_bucket = ref bucket_latency in
      while (not !blocked) && (not c.finished) && !issued < mc.issue_width do
        match c.rest with
        | [] -> invalid_arg "Sim: block without terminator"
        | i :: rest -> (
          let cls = classify i in
          let slot_free =
            match cls with
            | Decode.Calu -> !alu < mc.alu_units
            | Decode.Cfp -> !fp < mc.fp_units
            | Decode.Cmem -> !mem < mc.mem_ports
            | Decode.Cbr -> !br < mc.branch_units
            | Decode.Cnone -> true
          in
          let pending_operand = ref false in
          let operands_ready =
            let ok = ref true in
            List.iter
              (fun u ->
                let rr = c.reg_ready.(Reg.to_int u) in
                if rr > !now then begin
                  ok := false;
                  if rr >= pending_mark then pending_operand := true
                end)
              (Instr.uses i);
            (* WAW hazard against pending consumes only: every other
               write deposits its value at issue, but a pending consume's
               value arrives later and would clobber this newer write. *)
            List.iter
              (fun d ->
                if c.reg_ready.(Reg.to_int d) >= pending_mark then begin
                  ok := false;
                  pending_operand := true
                end)
              (Instr.defs i);
            !ok
          in
          let is_mem_op = Instr.is_memory i in
          let fence_ok =
            (not is_mem_op)
            || (c.outstanding_syncs = 0 && c.fence_ready <= !now)
          in
          let sa_ok =
            match i.op with
            | Instr.Produce _ | Instr.Consume _ | Instr.Produce_sync _
            | Instr.Consume_sync _ ->
              !sa_ports_left > 0
            | _ -> true
          in
          let queue_ok =
            match i.op with
            | Instr.Produce (q, _) | Instr.Produce_sync q ->
              queues.(q).logical_occupancy < mc.queue_size
            | _ -> true
          in
          if not slot_free then begin
            c.s_stall_ports <- c.s_stall_ports + 1;
            block_bucket := bucket_ports;
            blocked := true
          end
          else if not operands_ready then begin
            c.s_stall_data <- c.s_stall_data + 1;
            block_bucket :=
              (if !pending_operand then bucket_consume_empty
               else bucket_latency);
            blocked := true
          end
          else if not fence_ok then begin
            c.s_stall_queue <- c.s_stall_queue + 1;
            block_bucket :=
              (if c.outstanding_syncs > 0 then bucket_consume_empty
               else bucket_latency);
            blocked := true
          end
          else if not sa_ok then begin
            c.s_stall_ports <- c.s_stall_ports + 1;
            block_bucket := bucket_ports;
            blocked := true
          end
          else if not queue_ok then begin
            c.s_stall_queue <- c.s_stall_queue + 1;
            block_bucket := bucket_produce_full;
            blocked := true
          end
          else begin
            (* Issue. *)
            let get r = c.regs.(Reg.to_int r) in
            let set r v = c.regs.(Reg.to_int r) <- v in
            let mark r lat = c.reg_ready.(Reg.to_int r) <- !now + lat in
            let advance () = c.rest <- rest in
            let goto l =
              c.rest <- Cfg.body c.func.Func.cfg l;
              (* Control transfer ends the issue group (fetch redirect). *)
              issued := mc.issue_width
            in
            (match cls with
            | Decode.Calu -> incr alu
            | Decode.Cfp -> incr fp
            | Decode.Cmem -> incr mem
            | Decode.Cbr -> incr br
            | Decode.Cnone -> ());
            c.s_instrs <- c.s_instrs + 1;
            (match i.op with
            | Instr.Const (d, k) ->
              set d k;
              mark d mc.alu_latency;
              advance ()
            | Instr.Copy (d, s) ->
              set d (get s);
              mark d mc.alu_latency;
              advance ()
            | Instr.Unop (u, d, s) ->
              set d (Instr.eval_unop u (get s));
              mark d (latency_of mc i);
              advance ()
            | Instr.Binop (b, d, x, y) ->
              set d (Instr.eval_binop b (get x) (get y));
              mark d (latency_of mc i);
              advance ()
            | Instr.Load (_, d, base, off) ->
              let addr = (get base + off) land mask in
              set d memory.(addr);
              mark d (cache_load c addr);
              advance ()
            | Instr.Store (_, base, off, s) ->
              let addr = (get base + off) land mask in
              memory.(addr) <- get s;
              cache_store c addr;
              advance ()
            | Instr.Jump l -> goto l
            | Instr.Branch (cnd, l1, l2) ->
              goto (if get cnd <> 0 then l1 else l2)
            | Instr.Return ->
              c.finished <- true;
              c.finish_cycle <- !now
            | Instr.Produce (q, s) ->
              decr sa_ports_left;
              c.s_comm <- c.s_comm + 1;
              produce_to q (get s);
              advance ()
            | Instr.Produce_sync q ->
              decr sa_ports_left;
              c.s_comm <- c.s_comm + 1;
              c.s_sync <- c.s_sync + 1;
              produce_to q 1;
              advance ()
            | Instr.Consume (d, q) ->
              decr sa_ports_left;
              c.s_comm <- c.s_comm + 1;
              let qs = queues.(q) in
              if not (Queue.is_empty qs.entries) then begin
                let v, ready = Queue.pop qs.entries in
                qs.logical_occupancy <- qs.logical_occupancy - 1;
                set d v;
                c.reg_ready.(Reg.to_int d) <- max ready (!now + mc.sa_latency)
              end
              else begin
                (* Stall-on-use: issue now, value arrives later. *)
                Queue.push { core = ci; dst = Some d } qs.waiters;
                c.reg_ready.(Reg.to_int d) <- pending_mark
              end;
              advance ()
            | Instr.Consume_sync q ->
              decr sa_ports_left;
              c.s_comm <- c.s_comm + 1;
              c.s_sync <- c.s_sync + 1;
              let qs = queues.(q) in
              if not (Queue.is_empty qs.entries) then begin
                let _, ready = Queue.pop qs.entries in
                qs.logical_occupancy <- qs.logical_occupancy - 1;
                if ready > c.fence_ready then c.fence_ready <- ready
              end
              else begin
                Queue.push { core = ci; dst = None } qs.waiters;
                c.outstanding_syncs <- c.outstanding_syncs + 1
              end;
              advance ()
            | Instr.Nop -> advance ());
            incr issued;
            progressed := true
          end)
      done;
      if !progressed then bucket_busy else !block_bucket
    end
  in
  let fuel_exhausted = ref false in
  (try
     while (not (all_done ())) && not !deadlocked do
       if !now >= fuel then begin
         fuel_exhausted := true;
         raise_notrace Exit
       end;
       sa_ports_left := mc.sa_ports;
       let any = ref false in
       for ci = 0 to n_cores - 1 do
         let bucket = step_core ci in
         let attr = stall_attr.(ci) in
         attr.(bucket) <- attr.(bucket) + 1;
         if bucket = bucket_busy then any := true
       done;
       if !any then idle_cycles := 0
       else begin
         incr idle_cycles;
         if !idle_cycles > !idle_peak then idle_peak := !idle_cycles;
         if !idle_cycles > threshold then deadlocked := true
       end;
       incr now
     done
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
        if not c.finished then begin
          let waiting = ref None in
          Array.iteri
            (fun q qs ->
              Queue.iter
                (fun (w : pending_consumer) ->
                  if w.core = ci && !waiting = None then
                    waiting :=
                      Some
                        ( q,
                          match w.dst with
                          | Some _ -> "consume"
                          | None -> "consume.sync" ))
                qs.waiters)
            queues;
          let line =
            match !waiting with
            | Some (q, what) ->
              Printf.sprintf "core %d: blocked on %s from empty queue %d"
                ci what q
            | None -> (
              match c.rest with
              | { Instr.op = Instr.Produce (q, _); _ } :: _
              | { Instr.op = Instr.Produce_sync q; _ } :: _ ->
                Printf.sprintf
                  "core %d: blocked producing to full queue %d \
                   (occupancy %d/%d)"
                  ci q queues.(q).logical_occupancy mc.queue_size
              | _ ->
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
    Sim.cycles = !now;
    memory;
    per_core =
      Array.map
        (fun c ->
          {
            Sim.instrs = c.s_instrs;
            comm_instrs = c.s_comm;
            sync_instrs = c.s_sync;
            stall_data = c.s_stall_data;
            stall_queue = c.s_stall_queue;
            stall_ports = c.s_stall_ports;
            loads = c.s_loads;
            l1_hits = c.s_l1;
            l2_hits = c.s_l2;
            l3_hits = c.s_l3;
            mem_accesses = c.s_mem;
            finish_cycle = c.finish_cycle;
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
