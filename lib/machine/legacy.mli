(** The original list-walking simulator, frozen as the equivalence
    oracle for the jit engine (see {!Sim.kernel}).

    This is the implementation the machine model was validated against:
    [Queue.t]-based queue state, [Instr.t list] block walking, and a
    full guard re-evaluation for every core on every cycle. It is kept
    deliberately unoptimized — the jit engine must reproduce its
    results bit-for-bit, per-cycle stall attribution and queue peaks
    included, so this file defines what "correct" means. Reached via
    [Sim.run ~kernel:`Legacy]; the result types mirror {!Sim}'s and are
    converted field-for-field there. *)

open Gmt_ir

type core_stats = {
  instrs : int;
  comm_instrs : int;
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

val run :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Mtprog.t ->
  mem_size:int ->
  result
