(** Decoupled Software Pipelining partitioner (Ottoni et al., MICRO 2005).

    DSWP condenses the PDG's strongly connected components into a DAG and
    cuts a topological order of that DAG into [n_threads] contiguous
    pipeline stages, balancing the profile-weighted latency of the stages
    (minimum-bottleneck split, solved exactly by dynamic programming).
    Because every dependence arc respects the topological order, all
    inter-thread dependences flow forward: the thread graph is acyclic and
    the threads form a pipeline. *)

val partition :
  ?n_threads:int ->
  Gmt_pdg.Pdg.t ->
  Gmt_analysis.Profile.t ->
  Partition.t
(** Defaults to 2 threads, like the paper's evaluation. *)

(** [bottleneck_split weights k] cuts the sequence [weights] into at
    most [k] contiguous chunks minimizing the heaviest chunk's sum, and
    returns each element's chunk index. Among optimal splits it takes
    the fewest chunks. DSWP cuts its SCC order with it, and GREMIO its
    unit sequence at three or more threads. *)
val bottleneck_split : int array -> int -> int array

(** Expose the SCC stage split for inspection: [(scc_members, stage)]. *)
val stages :
  ?n_threads:int ->
  Gmt_pdg.Pdg.t ->
  Gmt_analysis.Profile.t ->
  (int list * int) list
