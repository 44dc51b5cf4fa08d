open Gmt_ir

type sched = Round_robin | Random of int

type thread_stats = {
  dyn_instrs : int;
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
  queues_drained : bool;
  blocked : string list;
}

let comm_of s = s.produces + s.consumes + s.produce_syncs + s.consume_syncs

let total_comm r = Array.fold_left (fun acc s -> acc + comm_of s) 0 r.threads

type tstate = {
  func : Func.t;
  regs : int array;
  mutable rest : Instr.t list; (* remaining body of the current block *)
  mutable finished : bool;
  mutable dyn : int;
  mutable prod : int;
  mutable cons : int;
  mutable psync : int;
  mutable csync : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Deterministic xorshift PRNG for the Random scheduler. *)
let make_rng seed =
  let state = ref (if seed = 0 then 0x2545F491 else seed) in
  fun bound ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state mod bound

let run ?(fuel = 50_000_000) ?(sched = Round_robin) ?(init_regs = [])
    ?(init_mem = []) (p : Mtprog.t) ~queue_capacity ~mem_size =
  if not (is_pow2 mem_size) then invalid_arg "Mt_interp.run: mem_size not 2^k";
  let mask = mem_size - 1 in
  let memory = Array.make mem_size 0 in
  List.iter (fun (a, v) -> memory.(a land mask) <- v) init_mem;
  if queue_capacity <= 0 then invalid_arg "Mt_interp.run: queue_capacity < 1";
  (* One ring per queue: [len.(q)] values from [head.(q)] on, wrapping
     at [queue_capacity], so produce and consume allocate nothing. *)
  let n_queues = max 1 p.n_queues in
  let ring = Array.init n_queues (fun _ -> Array.make queue_capacity 0) in
  let head = Array.make n_queues 0 and len = Array.make n_queues 0 in
  let produce q v =
    if len.(q) >= queue_capacity then false
    else begin
      ring.(q).((head.(q) + len.(q)) mod queue_capacity) <- v;
      len.(q) <- len.(q) + 1;
      true
    end
  in
  (* The head of a non-empty queue [q], popped. *)
  let consume q =
    let v = ring.(q).(head.(q)) in
    head.(q) <- (head.(q) + 1) mod queue_capacity;
    len.(q) <- len.(q) - 1;
    v
  in
  let mk_thread (f : Func.t) =
    let regs = Array.make (max 1 f.n_regs) 0 in
    List.iter
      (fun (r, v) ->
        if Reg.to_int r < Array.length regs then regs.(Reg.to_int r) <- v)
      init_regs;
    {
      func = f;
      regs;
      rest = Cfg.body f.cfg (Cfg.entry f.cfg);
      finished = false;
      dyn = 0;
      prod = 0;
      cons = 0;
      psync = 0;
      csync = 0;
    }
  in
  let threads = Array.map mk_thread p.threads in
  let n = Array.length threads in
  let fuel_left = ref fuel in
  let rng =
    match sched with Random seed -> make_rng seed | Round_robin -> fun _ -> 0
  in
  (* Retire the head instruction of [st], continuing with [next]; true,
     for progress. Built once per run: a helper closed over the step's
     locals would be allocated on every step. *)
  let retire st next =
    st.rest <- next;
    st.dyn <- st.dyn + 1;
    decr fuel_left;
    true
  in
  (* One instruction of thread [t]: true on progress, false (without
     advancing) when blocked on a queue. *)
  let step t =
    let st = threads.(t) in
    if st.finished then false
    else
      match st.rest with
      | [] -> invalid_arg "Mt_interp: block without terminator"
      | i :: rest -> (
        let regs = st.regs in
        match i.op with
        | Const (d, k) ->
          regs.(Reg.to_int d) <- k;
          retire st rest
        | Copy (d, s) ->
          regs.(Reg.to_int d) <- regs.(Reg.to_int s);
          retire st rest
        | Unop (u, d, s) ->
          regs.(Reg.to_int d) <- Instr.eval_unop u regs.(Reg.to_int s);
          retire st rest
        | Binop (b, d, x, y) ->
          regs.(Reg.to_int d) <-
            Instr.eval_binop b regs.(Reg.to_int x) regs.(Reg.to_int y);
          retire st rest
        | Load (_, d, base, off) ->
          regs.(Reg.to_int d) <-
            memory.((regs.(Reg.to_int base) + off) land mask);
          retire st rest
        | Store (_, base, off, s) ->
          memory.((regs.(Reg.to_int base) + off) land mask) <-
            regs.(Reg.to_int s);
          retire st rest
        | Jump l -> retire st (Cfg.body st.func.cfg l)
        | Branch (c, l1, l2) ->
          retire st
            (Cfg.body st.func.cfg (if regs.(Reg.to_int c) <> 0 then l1 else l2))
        | Return ->
          st.finished <- true;
          retire st rest
        | Produce (q, s) ->
          if produce q regs.(Reg.to_int s) then begin
            st.prod <- st.prod + 1;
            retire st rest
          end
          else false
        | Consume (d, q) ->
          if len.(q) > 0 then begin
            regs.(Reg.to_int d) <- consume q;
            st.cons <- st.cons + 1;
            retire st rest
          end
          else false
        | Produce_sync q ->
          if produce q 1 then begin
            st.psync <- st.psync + 1;
            retire st rest
          end
          else false
        | Consume_sync q ->
          if len.(q) > 0 then begin
            ignore (consume q);
            st.csync <- st.csync + 1;
            retire st rest
          end
          else false
        | Nop -> retire st rest)
  in
  let deadlocked = ref false in
  (* Per-pass scratch, hoisted so the scheduler loop allocates nothing. *)
  let progressed = ref false in
  (* Alloc-free finished scan: [Array.for_all] would build its predicate
     closure on every call, which at one call per scheduler pass is the
     whole steady-state allocation of the run. *)
  let rec done_from i = i >= n || (threads.(i).finished && done_from (i + 1)) in
  (* Run until everyone finishes, fuel runs out, or no thread can step. *)
  (try
     while (not (done_from 0)) && !fuel_left > 0 do
       progressed := false;
       (match sched with
       | Round_robin ->
         for t = 0 to n - 1 do
           if step t then progressed := true
         done
       | Random _ ->
         (* A random permutation pass: try threads starting from a random
            offset; each runnable thread steps a random number of times. *)
         let start = rng n in
         for k = 0 to n - 1 do
           let t = (start + k) mod n in
           let burst = 1 + rng 4 in
           let continue = ref true in
           for _ = 1 to burst do
             if !continue then
               if step t then progressed := true else continue := false
           done
         done);
       if not !progressed then begin
         deadlocked := true;
         raise Exit
       end
     done
   with Exit -> ());
  (* Name each blocked thread and the queue it is stuck on: every
     unfinished thread of a deadlocked run is parked on the head of its
     instruction stream, which the step function only refuses for
     communication ops. *)
  let blocked =
    if not !deadlocked then []
    else
      let report = ref [] in
      for t = n - 1 downto 0 do
        let st = threads.(t) in
        if not st.finished then
          let line =
            match st.rest with
            | { Instr.op = Produce (q, _); _ } :: _ ->
              Printf.sprintf
                "thread %d: blocked producing to full queue %d (occupancy %d/%d)"
                t q len.(q) queue_capacity
            | { op = Produce_sync q; _ } :: _ ->
              Printf.sprintf
                "thread %d: blocked on produce.sync to full queue %d (occupancy %d/%d)"
                t q len.(q) queue_capacity
            | { op = Consume (_, q); _ } :: _ ->
              Printf.sprintf "thread %d: blocked on consume from empty queue %d"
                t q
            | { op = Consume_sync q; _ } :: _ ->
              Printf.sprintf
                "thread %d: blocked on consume.sync from empty queue %d" t q
            | _ ->
              Printf.sprintf "thread %d: stalled with no runnable instruction" t
          in
          report := line :: !report
      done;
      !report
  in
  {
    memory;
    threads =
      Array.map
        (fun st ->
          {
            dyn_instrs = st.dyn;
            produces = st.prod;
            consumes = st.cons;
            produce_syncs = st.psync;
            consume_syncs = st.csync;
          })
        threads;
    deadlocked = !deadlocked;
    fuel_exhausted = !fuel_left <= 0;
    queues_drained = Array.for_all (fun l -> l = 0) len;
    blocked;
  }
