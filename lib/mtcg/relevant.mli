(** Relevant branches, blocks and points (Definitions 1 and 2).

    A branch is relevant to thread [T] when [T]'s generated CFG must
    replicate it: it is assigned to [T], it (transitively) controls an
    instruction assigned to [T], or it controls the insertion point of a
    communication into [T] (which is how COCO placements can make extra
    branches relevant — exactly the cost its min-cut penalizes).

    A program point is relevant to [T] iff all branches it is control
    dependent on are relevant to [T] (Definition 2). *)

open Gmt_ir
module Iset : Set.S with type elt = int

type t

val compute :
  Func.t ->
  Gmt_analysis.Controldep.t ->
  Gmt_sched.Partition.t ->
  Comm.t list ->
  t

(** Branch instruction ids relevant to a thread. *)
val branches : t -> int -> Iset.t

(** Original block labels relevant to a thread (blocks its CFG keeps). *)
val blocks : t -> int -> Iset.t

val is_relevant_branch : t -> thread:int -> branch_id:int -> bool

(** [point_relevant t ~thread cfg cd p] — Definition 2 for point [p]:
    every controlling branch of [p] is relevant to [thread]. For
    [On_edge (a, b)] the branch of [a] must additionally be relevant. *)
val point_relevant :
  t ->
  thread:int ->
  Cfg.t ->
  Gmt_analysis.Controldep.t ->
  Comm.point ->
  bool
