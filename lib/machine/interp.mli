(** Single-threaded reference interpreter.

    Serves two roles: the profiler that produces the edge weights COCO's
    min-cuts use (the train input), and the semantic oracle of the
    fuzzer, the lint soundness gate and the tests — which also pin the
    cycle simulator, which every measurement runs, to it.

    Memory is a flat word-addressed array of size [mem_size] (a power of
    two; addresses wrap). Memory regions are an analysis-level fiction:
    workloads place logically distinct regions at disjoint address ranges.

    It has one inner loop, which walks each block's instruction list:
    the plainest statement of the semantics the simulator and the
    compiler are tested against. On the compile path it runs once per
    program, on the train input, where its speed is within the noise of
    a matrix run. *)

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

val run :
  ?fuel:int ->
  ?init_regs:(Reg.t * int) list ->
  ?init_mem:(int * int) list ->
  Func.t ->
  mem_size:int ->
  result
