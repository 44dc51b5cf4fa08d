(** The original list-walking simulator, frozen as the equivalence
    oracle for {!Sim}'s jit engine.

    This is the implementation the machine model was validated against:
    [Queue.t]-based queue state, [Instr.t list] block walking, and a
    full guard re-evaluation for every core on every cycle. It is kept
    deliberately unoptimized — the jit engine must reproduce its
    results bit-for-bit, per-cycle stall attribution and queue peaks
    included, so this file defines what "correct" means. Nothing on the
    measurement path calls it: tests and the bench harness do, and it
    returns {!Sim}'s result type so the two compare structurally. *)

open Gmt_ir

(** {!Sim.run}'s contract, executed by the legacy issue loop. *)
val run :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Config.t ->
  Mtprog.t ->
  mem_size:int ->
  Sim.result
