(** Pre-decoded programs for the cycle-level simulator.

    [Sim]'s original issue loop re-walked OCaml instruction lists every
    cycle: each issue attempt pattern-matched an [Instr.t], allocated the
    [Instr.uses]/[Instr.defs] lists, re-classified the instruction and
    re-derived its latency, and every taken branch rebuilt the successor
    block's body with [Cfg.body]. Decoding compiles a {!Func.t} once into
    flat arrays — one decoded instruction per slot, registers as plain
    ints, per-instruction class/latency/use/def sets precomputed, and
    branch targets resolved to indices into the flat code array — so the
    hot loop is array indexing on immediates with no allocation.

    Decoding is purely representational: {!Jit} compiles from it, and
    the jit kernel in {!Sim} is byte-identical in results to the legacy
    list-walking kernel (QCheck enforces this). *)

open Gmt_ir

(** Functional-unit class an instruction competes for (paper Fig 6(a):
    ALU / FP / M / branch slots per cycle). *)
type iclass = Calu | Cfp | Cmem | Cbr | Cnone

(** Decoded operation. Register operands are [Reg.to_int] images; jump
    and branch operands are {e code indices} (positions in {!t.code}),
    not block labels. *)
type dop =
  | Dconst of int * int (* dst, imm *)
  | Dcopy of int * int (* dst, src *)
  | Dunop of Instr.unop * int * int (* dst, src *)
  | Dbinop of Instr.binop * int * int * int (* dst, src1, src2 *)
  | Dload of int * int * int (* dst, base, off *)
  | Dstore of int * int * int (* base, off, src *)
  | Djump of int (* target pc *)
  | Dbranch of int * int * int (* cond, pc-if-nonzero, pc-if-zero *)
  | Dreturn
  | Dproduce of int * int (* queue, src *)
  | Dconsume of int * int (* dst, queue *)
  | Dproduce_sync of int (* queue *)
  | Dconsume_sync of int (* queue *)
  | Dnop

type dinstr = {
  dop : dop;
  cls : iclass;
  lat : int;  (** issue latency under the decoding machine config *)
  uses : int array;  (** registers read, as ints *)
  defs : int array;  (** registers written, as ints *)
  is_mem : bool;  (** load/store: subject to the acquire fence *)
  needs_sa : bool;  (** produce/consume: consumes an SA port *)
}

type t = {
  code : dinstr array;  (** all blocks, concatenated in label order *)
  block_start : int array;  (** label -> index of its first instruction *)
  entry_pc : int;
}

(** Shared classification/latency tables (also used by the legacy
    list-walking kernel so both paths agree by construction). *)
val classify : Instr.t -> iclass

val latency_of : Config.t -> Instr.t -> int

(** Decode one function under a machine config (latencies are baked in). *)
val func : Config.t -> Func.t -> t
