(** The value-analysis instantiation of {!Absint}: per-register intervals
    ({!Itv}), symbolic affine indices for region accesses, may-be-
    uninitialized bits, and per-queue produce/consume balance.

    The affine-index ("symbolic") component tracks a register as
    [base definition + constant delta], where the base is an instruction
    id (or a {!Reaching.entry_def} pseudo-id for live-in registers).
    Deltas are exact modulo word wrap-around, which is all the memory
    disambiguator needs: the machine masks addresses with a power-of-two
    memory size, and wrap-around preserves congruence. *)

open Gmt_ir

(** Abstract value of one register. *)
type aval = {
  itv : Itv.t;
  sym : (int * int) option;  (** (base def id, delta) *)
  uninit : bool;  (** may hold no program-written value at this point *)
}

(** Abstract machine state: one {!aval} per register plus the per-queue
    produce-minus-consume balance (missing queue = exactly 0). *)
type env

val env_is_bottom : env -> bool
val reg : env -> Reg.t -> aval

(** Pre-mask abstract address of a [base + off] access. *)
val addr : env -> base:Reg.t -> off:int -> Itv.t * (int * int) option

(** Queues with a balance other than exactly [0, 0], sorted by id. *)
val queue_imbalance : env -> (int * Itv.t) list

(** The engine instantiated with this domain. *)
module Engine : sig
  type result

  val block_in : result -> Instr.label -> env
  val before : result -> int -> env
  val after : result -> int -> env
  val iterations : result -> int
  val n_nodes : result -> int
end

(** [analyze f] solves the function from an entry state where exactly the
    live-in registers are initialized (every register's interval is top:
    sound both for the zero-filling reference interpreter and for
    arbitrary workload inputs), with {!Absint.Make.solve}'s fixed
    widening delay (2 visits) and narrowing bound (2 rounds). *)
val analyze : Func.t -> Engine.result
