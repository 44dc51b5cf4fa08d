(** COCO — COmpiler Communication Optimization (Algorithm 2).

    Computes an optimized communication plan for a partition: register
    communications are placed by per-register min-cuts over {!Flowgraph}
    (with control-flow penalties), memory synchronizations by the
    multi-commodity heuristic, and the whole thing iterates because
    placements can make new branches relevant to a target thread, which in
    turn constrains later placements (the repeat-until loop of
    Algorithm 2). The result plugs into {!Gmt_mtcg.Mtcg.generate}. *)

type stats = {
  iterations : int;          (** outer fixpoint iterations executed *)
  register_cuts : int;       (** register min-cut problems solved *)
  memory_cuts : int;         (** memory multicut problems solved *)
  fallbacks : int;           (** infinite cuts that fell back to baseline *)
}

val optimize :
  ?control_penalty:bool ->
  Gmt_pdg.Pdg.t ->
  Gmt_sched.Partition.t ->
  Gmt_analysis.Profile.t ->
  Gmt_mtcg.Mtcg.plan * stats
(** [control_penalty] defaults to [true]; disabling it gives the ablation
    where equal-cost cuts may drag extra branches into target threads.
    The repeat-until loop stops when an iteration places exactly what
    the previous one placed, and after 10 iterations at most; the last
    iteration's placements are the plan. *)
