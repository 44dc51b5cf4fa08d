open Gmt_ir
module Profile = Gmt_analysis.Profile

type result = {
  memory : int array;
  regs : int array;
  dyn_instrs : int;
  profile : Profile.t;
  fuel_exhausted : bool;
}

type engine = [ `Jit | `Legacy ]

exception Stuck of string

let is_pow2 n = n > 0 && n land (n - 1) = 0

let stuck_comm (i : Instr.t) =
  Stuck
    (Printf.sprintf "communication instruction i%d in single-threaded code"
       i.id)

let run ?(fuel = 50_000_000) ?(init_regs = []) ?(init_mem = [])
    ?(engine = `Jit) (f : Func.t) ~mem_size =
  if not (is_pow2 mem_size) then invalid_arg "Interp.run: mem_size not 2^k";
  let mask = mem_size - 1 in
  let memory = Array.make mem_size 0 in
  List.iter (fun (a, v) -> memory.(a land mask) <- v) init_mem;
  let regs = Array.make (max 1 f.n_regs) 0 in
  List.iter (fun (r, v) -> regs.(Reg.to_int r) <- v) init_regs;
  let profile = Profile.create () in
  let cfg = f.cfg in
  let get r = regs.(Reg.to_int r) in
  let set r v = regs.(Reg.to_int r) <- v in
  let dyn = ref 0 in
  let fuel_left = ref fuel in
  let finished = ref false in
  let block = ref (Cfg.entry cfg) in
  (* Control-transfer slot of the jit engine: the taken successor
     label, or -1 while still inside the block. *)
  let next_label = ref (-1) in
  let run_legacy () =
    while not !finished do
      Profile.bump_block profile !block 1;
      let body = Cfg.body cfg !block in
      let next = ref None in
      List.iter
        (fun (i : Instr.t) ->
          if !next = None && not !finished then begin
            decr fuel_left;
            if !fuel_left <= 0 then raise Exit;
            incr dyn;
            match i.op with
            | Const (d, k) -> set d k
            | Copy (d, s) -> set d (get s)
            | Unop (u, d, s) -> set d (Instr.eval_unop u (get s))
            | Binop (b, d, x, y) -> set d (Instr.eval_binop b (get x) (get y))
            | Load (_, d, base, off) ->
              set d memory.((get base + off) land mask)
            | Store (_, base, off, s) ->
              memory.((get base + off) land mask) <- get s
            | Jump l -> next := Some l
            | Branch (c, l1, l2) ->
              next := Some (if get c <> 0 then l1 else l2)
            | Return -> finished := true
            | Produce _ | Consume _ | Produce_sync _ | Consume_sync _ ->
              raise (stuck_comm i)
            | Nop -> ()
          end)
        body;
      match !next with
      | Some l ->
        Profile.bump_edge profile ~src:!block ~dst:l 1;
        block := l
      | None -> if not !finished then raise (Stuck "block fell through")
    done
  in
  (* Jit engine: each instruction compiled once into a closure over the
     register file / memory / control slots, so the inner loop runs no
     [match] on opcode — it indexes a closure array and calls. *)
  let run_jit () =
    let compile_one (i : Instr.t) : unit -> unit =
      match i.Instr.op with
      | Const (d, k) ->
        let d = Reg.to_int d in
        fun () -> regs.(d) <- k
      | Copy (d, s) ->
        let d = Reg.to_int d and s = Reg.to_int s in
        fun () -> regs.(d) <- regs.(s)
      | Unop (u, d, s) ->
        let d = Reg.to_int d and s = Reg.to_int s in
        fun () -> regs.(d) <- Instr.eval_unop u regs.(s)
      | Binop (b, d, x, y) ->
        let d = Reg.to_int d and x = Reg.to_int x and y = Reg.to_int y in
        fun () -> regs.(d) <- Instr.eval_binop b regs.(x) regs.(y)
      | Load (_, d, base, off) ->
        let d = Reg.to_int d and base = Reg.to_int base in
        fun () -> regs.(d) <- memory.((regs.(base) + off) land mask)
      | Store (_, base, off, s) ->
        let base = Reg.to_int base and s = Reg.to_int s in
        fun () -> memory.((regs.(base) + off) land mask) <- regs.(s)
      | Jump l -> fun () -> next_label := l
      | Branch (c, l1, l2) ->
        let c = Reg.to_int c in
        fun () -> next_label := (if regs.(c) <> 0 then l1 else l2)
      | Return -> fun () -> finished := true
      | Produce _ | Consume _ | Produce_sync _ | Consume_sync _ ->
        let exn = stuck_comm i in
        fun () -> raise exn
      | Nop -> fun () -> ()
    in
    let code =
      Array.init (Cfg.n_blocks cfg) (fun l ->
          Array.of_list (List.map compile_one (Cfg.body cfg l)))
    in
    while not !finished do
      Profile.bump_block profile !block 1;
      let body = code.(!block) in
      let n = Array.length body in
      next_label := -1;
      let ix = ref 0 in
      while !next_label < 0 && (not !finished) && !ix < n do
        decr fuel_left;
        if !fuel_left <= 0 then raise Exit;
        incr dyn;
        body.(!ix) ();
        incr ix
      done;
      if !next_label >= 0 then begin
        Profile.bump_edge profile ~src:!block ~dst:!next_label 1;
        block := !next_label
      end
      else if not !finished then raise (Stuck "block fell through")
    done
  in
  (try
     match engine with
     | `Legacy -> run_legacy ()
     | `Jit -> run_jit ()
   with Exit -> ());
  {
    memory;
    regs;
    dyn_instrs = !dyn;
    profile;
    fuel_exhausted = !fuel_left <= 0;
  }
