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
  (* Execute block [l] from its remaining instructions [is] on; a jump
     or branch continues in its target. Every call is a tail call, so
     only the profile's counts allocate. *)
  let rec walk l (is : Instr.t list) =
    match is with
    | [] -> raise (Stuck "block fell through")
    | i :: rest ->
      decr fuel_left;
      if !fuel_left > 0 then begin
        incr dyn;
        match i.op with
        | Const (d, k) ->
          set d k;
          walk l rest
        | Copy (d, s) ->
          set d (get s);
          walk l rest
        | Unop (u, d, s) ->
          set d (Instr.eval_unop u (get s));
          walk l rest
        | Binop (b, d, x, y) ->
          set d (Instr.eval_binop b (get x) (get y));
          walk l rest
        | Load (_, d, base, off) ->
          set d memory.((get base + off) land mask);
          walk l rest
        | Store (_, base, off, s) ->
          memory.((get base + off) land mask) <- get s;
          walk l rest
        | Jump l' -> enter l l'
        | Branch (c, l1, l2) -> enter l (if get c <> 0 then l1 else l2)
        | Return -> ()
        | Produce _ | Consume _ | Produce_sync _ | Consume_sync _ ->
          raise (stuck_comm i)
        | Nop -> walk l rest
      end
  and enter src dst =
    Profile.bump_edge profile ~src ~dst 1;
    Profile.bump_block profile dst 1;
    walk dst (Cfg.body cfg dst)
  in
  let entry = Cfg.entry cfg in
  Profile.bump_block profile entry 1;
  walk entry (Cfg.body cfg entry);
  {
    memory;
    regs;
    dyn_instrs = !dyn;
    profile;
    fuel_exhausted = !fuel_left <= 0;
  }
