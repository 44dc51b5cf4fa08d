(** Latency and cost estimates used by the partitioners. *)

open Gmt_ir

(** Issue-to-result latency estimate for one instruction (ALU 1, FP 4,
    load 2, store 1, branch 1, communication 1). *)
val latency : Instr.t -> int

(** [dyn_cost profile cfg i] = latency × execution count of [i]'s block. *)
val dyn_cost : Gmt_analysis.Profile.t -> Cfg.t -> Instr.t -> int
