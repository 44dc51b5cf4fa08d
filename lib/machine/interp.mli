(** Single-threaded reference interpreter.

    Serves two roles: the profiler that produces the edge weights COCO's
    min-cuts use (the train input), and the semantic oracle of the
    fuzzer, the lint soundness gate and the tests — which also pin the
    cycle simulator, the engine measurement runs, to it.

    Memory is a flat word-addressed array of size [mem_size] (a power of
    two; addresses wrap). Memory regions are an analysis-level fiction:
    workloads place logically distinct regions at disjoint address ranges. *)

open Gmt_ir

type result = {
  memory : int array;
  regs : int array;              (** final register file *)
  dyn_instrs : int;              (** instructions executed *)
  profile : Gmt_analysis.Profile.t; (** edge + block execution counts *)
  fuel_exhausted : bool;
}

exception Stuck of string
(** Raised on produce/consume in single-threaded code. *)

(** Inner-loop implementation. [`Jit] (the default) compiles each
    instruction once into a closure over the register file and memory;
    [`Legacy] re-walks the IR lists and is the test oracle. Both produce
    identical results (memory, regs, dyn_instrs, profile, fuel behavior)
    — enforced by QCheck properties in [test_simkernel]. *)
type engine = [ `Jit | `Legacy ]

val run :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  ?engine:engine ->
  Func.t ->
  mem_size:int ->
  result
