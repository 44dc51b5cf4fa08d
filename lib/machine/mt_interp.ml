open Gmt_ir

type sched = Round_robin | Random of int

type engine = [ `Jit | `Legacy ]

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
  mutable rest : Instr.t list; (* legacy engine: remaining block body *)
  mutable blk : int; (* jit engine: current block label... *)
  mutable ix : int; (* ...and instruction index within it *)
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
    ?(init_mem = []) ?(engine = `Jit) (p : Mtprog.t) ~queue_capacity ~mem_size
    =
  if not (is_pow2 mem_size) then invalid_arg "Mt_interp.run: mem_size not 2^k";
  let mask = mem_size - 1 in
  let memory = Array.make mem_size 0 in
  List.iter (fun (a, v) -> memory.(a land mask) <- v) init_mem;
  let sa =
    Syncarray.create ~n_queues:(max 1 p.n_queues) ~capacity:queue_capacity
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
      blk = Cfg.entry f.cfg;
      ix = 0;
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
  (* Block bodies snapshotted into arrays for the jit engine (indexed
     [thread].(label).(ix)); the legacy engine walks the IR lists
     directly. *)
  let codes =
    match engine with
    | `Legacy -> [||]
    | `Jit ->
      Array.map
        (fun st ->
          Array.init
            (Cfg.n_blocks st.func.Func.cfg)
            (fun l -> Array.of_list (Cfg.body st.func.Func.cfg l)))
        threads
  in
  (* ---- legacy engine: one instruction of thread [t]; true on progress,
     false (without advancing) when blocked on a queue. *)
  let step_legacy t =
    let st = threads.(t) in
    if st.finished then false
    else
      match st.rest with
      | [] -> invalid_arg "Mt_interp: block without terminator"
      | i :: rest -> (
        let get r = st.regs.(Reg.to_int r) in
        let set r v = st.regs.(Reg.to_int r) <- v in
        let goto l = st.rest <- Cfg.body st.func.cfg l in
        let advance () = st.rest <- rest in
        let retire () =
          st.dyn <- st.dyn + 1;
          decr fuel_left
        in
        match i.op with
        | Const (d, k) -> set d k; advance (); retire (); true
        | Copy (d, s) -> set d (get s); advance (); retire (); true
        | Unop (u, d, s) ->
          set d (Instr.eval_unop u (get s));
          advance (); retire (); true
        | Binop (b, d, x, y) ->
          set d (Instr.eval_binop b (get x) (get y));
          advance (); retire (); true
        | Load (_, d, base, off) ->
          set d memory.((get base + off) land mask);
          advance (); retire (); true
        | Store (_, base, off, s) ->
          memory.((get base + off) land mask) <- get s;
          advance (); retire (); true
        | Jump l -> goto l; retire (); true
        | Branch (c, l1, l2) ->
          goto (if get c <> 0 then l1 else l2);
          retire (); true
        | Return -> st.finished <- true; retire (); true
        | Produce (q, s) ->
          if Syncarray.try_produce sa ~q ~value:(get s) ~ready:0 then begin
            st.prod <- st.prod + 1;
            advance (); retire (); true
          end
          else false
        | Consume (d, q) ->
          if Syncarray.can_consume sa ~q ~now:0 then begin
            set d (Syncarray.consume sa ~q ~now:0);
            st.cons <- st.cons + 1;
            advance (); retire (); true
          end
          else false
        | Produce_sync q ->
          if Syncarray.try_produce sa ~q ~value:1 ~ready:0 then begin
            st.psync <- st.psync + 1;
            advance (); retire (); true
          end
          else false
        | Consume_sync q ->
          if Syncarray.can_consume sa ~q ~now:0 then begin
            ignore (Syncarray.consume sa ~q ~now:0);
            st.csync <- st.csync + 1;
            advance (); retire (); true
          end
          else false
        | Nop -> advance (); retire (); true)
  in
  (* ---- jit engine: every instruction compiled once into a closure
     that performs the op, advances, retires and reports progress; the
     step indexes [jcodes] and calls — no opcode [match], no per-step
     allocation. *)
  let jcodes =
    match engine with
    | `Legacy -> [||]
    | `Jit ->
      Array.mapi
        (fun t blocks ->
          let st = threads.(t) in
          let regs = st.regs in
          let retire () =
            st.dyn <- st.dyn + 1;
            decr fuel_left
          in
          Array.map
            (fun body ->
              Array.mapi
                (fun ix (i : Instr.t) : (unit -> bool) ->
                  let next_ix = ix + 1 in
                  match i.Instr.op with
                  | Const (d, k) ->
                    let d = Reg.to_int d in
                    fun () ->
                      regs.(d) <- k;
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Copy (d, s) ->
                    let d = Reg.to_int d and s = Reg.to_int s in
                    fun () ->
                      regs.(d) <- regs.(s);
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Unop (u, d, s) ->
                    let d = Reg.to_int d and s = Reg.to_int s in
                    fun () ->
                      regs.(d) <- Instr.eval_unop u regs.(s);
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Binop (b, d, x, y) ->
                    let d = Reg.to_int d
                    and x = Reg.to_int x
                    and y = Reg.to_int y in
                    fun () ->
                      regs.(d) <- Instr.eval_binop b regs.(x) regs.(y);
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Load (_, d, base, off) ->
                    let d = Reg.to_int d and base = Reg.to_int base in
                    fun () ->
                      regs.(d) <- memory.((regs.(base) + off) land mask);
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Store (_, base, off, s) ->
                    let base = Reg.to_int base and s = Reg.to_int s in
                    fun () ->
                      memory.((regs.(base) + off) land mask) <- regs.(s);
                      st.ix <- next_ix;
                      retire ();
                      true
                  | Jump l ->
                    fun () ->
                      st.blk <- l;
                      st.ix <- 0;
                      retire ();
                      true
                  | Branch (c, l1, l2) ->
                    let c = Reg.to_int c in
                    fun () ->
                      (if regs.(c) <> 0 then st.blk <- l1 else st.blk <- l2);
                      st.ix <- 0;
                      retire ();
                      true
                  | Return ->
                    fun () ->
                      st.finished <- true;
                      retire ();
                      true
                  | Produce (q, s) ->
                    let s = Reg.to_int s in
                    fun () ->
                      if
                        Syncarray.try_produce sa ~q ~value:regs.(s) ~ready:0
                      then begin
                        st.prod <- st.prod + 1;
                        st.ix <- next_ix;
                        retire ();
                        true
                      end
                      else false
                  | Consume (d, q) ->
                    let d = Reg.to_int d in
                    fun () ->
                      if Syncarray.can_consume sa ~q ~now:0 then begin
                        regs.(d) <- Syncarray.consume sa ~q ~now:0;
                        st.cons <- st.cons + 1;
                        st.ix <- next_ix;
                        retire ();
                        true
                      end
                      else false
                  | Produce_sync q ->
                    fun () ->
                      if Syncarray.try_produce sa ~q ~value:1 ~ready:0 then begin
                        st.psync <- st.psync + 1;
                        st.ix <- next_ix;
                        retire ();
                        true
                      end
                      else false
                  | Consume_sync q ->
                    fun () ->
                      if Syncarray.can_consume sa ~q ~now:0 then begin
                        ignore (Syncarray.consume sa ~q ~now:0);
                        st.csync <- st.csync + 1;
                        st.ix <- next_ix;
                        retire ();
                        true
                      end
                      else false
                  | Nop ->
                    fun () ->
                      st.ix <- next_ix;
                      retire ();
                      true)
                body)
            blocks)
        codes
  in
  let step_jit t =
    let st = threads.(t) in
    if st.finished then false
    else begin
      let body = jcodes.(t).(st.blk) in
      if st.ix >= Array.length body then
        invalid_arg "Mt_interp: block without terminator";
      body.(st.ix) ()
    end
  in
  let step = match engine with `Legacy -> step_legacy | `Jit -> step_jit in
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
  let head_op t =
    let st = threads.(t) in
    match engine with
    | `Legacy -> (
      match st.rest with [] -> None | i :: _ -> Some i.Instr.op)
    | `Jit ->
      let body = codes.(t).(st.blk) in
      if st.ix < Array.length body then Some body.(st.ix).Instr.op else None
  in
  let blocked =
    if not !deadlocked then []
    else
      let report = ref [] in
      for t = n - 1 downto 0 do
        let st = threads.(t) in
        if not st.finished then
          let line =
            match head_op t with
            | Some (Produce (q, _)) ->
              Printf.sprintf
                "thread %d: blocked producing to full queue %d (occupancy %d/%d)"
                t q (Syncarray.occupancy sa ~q) (Syncarray.capacity sa)
            | Some (Produce_sync q) ->
              Printf.sprintf
                "thread %d: blocked on produce.sync to full queue %d (occupancy %d/%d)"
                t q (Syncarray.occupancy sa ~q) (Syncarray.capacity sa)
            | Some (Consume (_, q)) ->
              Printf.sprintf "thread %d: blocked on consume from empty queue %d"
                t q
            | Some (Consume_sync q) ->
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
    queues_drained = Syncarray.all_empty sa;
    blocked;
  }
