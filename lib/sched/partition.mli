(** Thread partitions: the output of a GMT partitioner, input to MTCG.

    A partition maps every instruction id of the region to a thread index
    [0 .. n_threads-1]. MTCG generates correct code for {e any} total
    partition; partitioners differ only in which partitions they pick. *)

open Gmt_ir

type t

val make : n_threads:int -> (int * int) list -> t
(** [(instr_id, thread)] assignment pairs.
    @raise Invalid_argument on duplicate ids or thread out of range. *)

val n_threads : t -> int

(** @raise Not_found if the id is unassigned. *)
val thread_of : t -> int -> int

val thread_of_opt : t -> int -> int option

(** Instruction ids assigned to a thread, ascending. *)
val instrs_of : t -> int -> int list

(** Check the partition assigns every non-structural instruction of [f]
    (structural instructions — jumps, returns, nops — are control glue
    that MTCG rebuilds per thread). *)
val errors : t -> Func.t -> string list

(** Thread graph [G_T] (Section 3.2): node per thread, arc [Ts -> Tt] iff
    some PDG arc crosses from [Ts] to [Tt]. *)
val thread_graph : t -> Gmt_pdg.Pdg.t -> Gmt_graphalg.Digraph.t

(** True when the thread graph is acyclic (DSWP's pipeline property). *)
val is_pipeline : t -> Gmt_pdg.Pdg.t -> bool

val pp : Format.formatter -> t -> unit
