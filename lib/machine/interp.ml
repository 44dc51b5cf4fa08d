open Gmt_ir
module Profile = Gmt_analysis.Profile

type result = {
  memory : int array;
  regs : int array;
  dyn_instrs : int;
  profile : Profile.t;
  fuel_exhausted : bool;
}

exception Stuck of string

let is_pow2 n = n > 0 && n land (n - 1) = 0

let stuck_comm (i : Instr.t) =
  Stuck
    (Printf.sprintf "communication instruction i%d in single-threaded code"
       i.id)

let run ?(fuel = 50_000_000) ?(init_regs = []) ?(init_mem = []) (f : Func.t)
    ~mem_size =
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
  (try
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
   with Exit -> ());
  {
    memory;
    regs;
    dyn_instrs = !dyn;
    profile;
    fuel_exhausted = !fuel_left <= 0;
  }
