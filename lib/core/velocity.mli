(** The end-to-end compilation pipeline, named after the VELOCITY compiler
    the paper's system was implemented in: profile the kernel on its train
    input, build the PDG, partition (DSWP or GREMIO), generate
    multi-threaded code (MTCG, optionally with COCO's optimized
    communication placement), then measure on the reference input.

    A measured program executes exactly once: one cycle simulation
    yields its cycles (Figure 8) and its dynamic instruction,
    communication and synchronization counts (Figures 1 and 7). The
    single-threaded cell's simulation is also the oracle: every
    multi-threaded cell's final memory must equal it. The interpreters
    stay off this path; {!Gmt_machine.Interp} only profiles the train
    input, and tests pin the simulator to both interpreters.

    Nothing here caches. A compile is a deterministic function of its
    program text, technique, thread count and machine, and the gmtd
    service keys, stores and serves its output in [Gmt_service.Render];
    this library does not link the artifact cache. *)

open Gmt_ir
module Workload = Gmt_workloads.Workload

type technique = Dswp | Gremio

val technique_name : technique -> string

(** Raised by {!measure} (instead of plain [Failure]) when the simulator
    deadlocks. The payload's first line
    identifies the cell; subsequent lines name each blocked thread and
    the queue it is stuck on. *)
exception Deadlock of string

type compiled = {
  workload : Workload.t;
  technique : technique;
  coco : bool;
  n_threads : int;
  pdg : Gmt_pdg.Pdg.t;
  partition : Gmt_sched.Partition.t;
  plan : Gmt_mtcg.Mtcg.plan;
  queues : Gmt_mtcg.Queue_alloc.t;
      (** logical-to-physical queue recolouring used by the weaver *)
  origin : Gmt_mtcg.Mtcg.origin;
      (** provenance of the generated produce/consume instructions *)
  mtp : Mtprog.t;
  coco_stats : Gmt_coco.Coco.stats option;
}

(** Re-run the {!Gmt_verify.Verify} translation validator over a compiled
    program (already run by {!compile} unless [~verify:false]); returns
    its diagnostics — empty means verified. *)
val verify_compiled : compiled -> Gmt_verify.Verify.diagnostic list

(** {2 The compile stages}

    A compile runs in three stages, so that the products a workload's
    cells share are computed once for all of them:
    - {!analyze}, once per program: validate, the optional [opt]
      pipeline, the profile and the PDG;
    - {!partition}, once per technique and thread count: the partition
      and its {!Gmt_sched.Partition.errors} check;
    - {!codegen}, once per cell: COCO or the baseline plan, queue
      allocation, MTCG, cleanup, [validate.threads] and verification.

    {!compile} is their composition. A stage only reads the products it
    is given, so one {!analysis} can feed every partition of its program
    and one {!partitioned} both of its ±COCO cells, in any domain. *)

(** The per-program products: the (optionally optimized) workload, its
    profile and its PDG. *)
type analysis

(** The per-program stage; [profile_mode] and [optimize] are
    {!compile}'s. The PDG is always pruned (see {!compile}).
    @raise Failure when the train run exhausts its fuel. *)
val analyze :
  ?profile_mode:[ `Train | `Static ] -> ?optimize:bool -> Workload.t -> analysis

(** One technique's partition of an {!analysis}, with the analysis it
    came from. *)
type partitioned

(** The per-technique stage: partition into [n_threads] (default 2).
    @raise Failure when the partitioner returns an invalid partition. *)
val partition : ?n_threads:int -> technique -> analysis -> partitioned

(** The per-cell stage; [coco] and [verify] are {!compile}'s, and the
    generated threads are always cleaned up (see {!compile}).
    Per-cell metric keys ([partition.<cell>.*], [coco.<cell>.*],
    [mtcg.<cell>.queues]) are recorded here. A cell is named
    [<workload>/<technique>[+coco]], with [@<k>] appended at a thread
    count [k] other than 2, as in its [sim.<cell>.*] keys.
    @raise Failure when verification rejects the generated code. *)
val codegen : ?coco:bool -> ?verify:bool -> partitioned -> compiled

(** Compile a workload: {!analyze}, then {!partition}, then {!codegen},
    inside one [compile] span.

    [profile_mode] (default [`Train]) selects the edge weights COCO and
    the partitioners use: [`Train] interprets the workload's train input
    (the paper's methodology); [`Static] uses the loop-nesting estimator —
    the paper notes static estimates "have been demonstrated to be also
    very accurate" [28].

    The PDG is always built with [Pdg.build ~prune_mem:mem_size]: the
    {!Gmt_analysis.Memdis} abstract-interpretation disambiguator drops
    memory arcs between accesses with provably disjoint address sets,
    and verification ({!verify_compiled}) independently re-proves each
    exclusion. The generated thread CFGs are always cleaned up
    (jump-threaded and pruned).

    [optimize] (default false) runs the classical pre-pass pipeline
    (constant folding, copy propagation, DCE, CFG simplification) before
    scheduling, as the paper's compiler does.

    [verify] (default true) runs the {!Gmt_verify.Verify} translation
    validator on the generated program and fails the compile with its
    rendered diagnostics if any check rejects.
    @raise Failure when verification rejects the generated code. *)
val compile :
  ?n_threads:int ->
  ?coco:bool ->
  ?profile_mode:[ `Train | `Static ] ->
  ?optimize:bool ->
  ?verify:bool ->
  technique ->
  Workload.t ->
  compiled

type metrics = {
  dyn_instrs : int;     (** total dynamic instructions, all threads *)
  comm_instrs : int;    (** produce+consume+sync instructions *)
  mem_syncs : int;      (** produce_sync + consume_sync only *)
  cycles : int;         (** simulated cycles (max over cores) *)
  deadlocked : bool;
  fuel_exhausted : bool;
      (** the simulation ran out of its [fuel] cycle budget and stopped
          mid-flight (for an MT cell: its own, or the reference it is
          checked against); counts and cycles are partial and the
          memory-equivalence check was skipped. The driver and the
          compile service map this to the distinct timeout exit
          code. *)
  stall_attr : int array array;
      (** per-core cycle attribution, indexed by
          {!Gmt_machine.Sim.stall_labels}; each row sums to [cycles] *)
  queue_peak : int array;  (** peak occupancy per physical queue *)
}

(** The metrics of one simulation as every measurement reads them: its
    per-core counts summed, with its cycles, flags, stall attribution
    and queue peaks. *)
val metrics_of_sim : Gmt_machine.Sim.result -> metrics

(** {2 Measurement}

    Every measured program executes once, in the cycle simulator.
    [fuel] bounds each simulation's cycles (default 100M). [expect] is a
    reference oracle: the single-threaded final memory and dynamic
    instruction count, as {!measure_reference} returns them. *)

(** Simulate the single-threaded original on the reference input, one
    core of the paper's machine: the baseline of the Figure 8 speedups,
    and the oracle its workload's MT cells are checked against
    (final memory, dynamic instruction count). The oracle is partial
    when the metrics say [fuel_exhausted]. *)
val measure_reference :
  ?fuel:int ->
  Workload.t ->
  metrics * (int array * int)

(** MD5 of a final memory image, taken over fixed 4 KB chunks (512
    words, little-endian 64-bit) and then over the chunk digests, so it
    allocates nothing proportional to the image. An all-zero full chunk
    reuses one digest computed once. Equal images have equal digests. *)
val memory_digest : int array -> string

(** What a multi-threaded cell's final memory is checked against: the
    reference's final image itself, or its {!memory_digest}. *)
type oracle = Image of int array | Image_digest of string

(** The measurement core under {!measure} and {!run_matrix}: simulate
    the generated program of cell [name]/[technique] on [input], the
    reference input of a program with [mem_size] words of memory, and
    check its final memory against [oracle] — [None] when the reference
    ran out of [fuel], which reports the cell [fuel_exhausted]. It reads
    nothing else of the workload, so a caller holding only those three
    values, and a digest for an oracle, measures a cell without the
    parsed program.
    @raise Failure on divergence.
    @raise Deadlock on deadlock, with a per-thread blocked report. *)
val measure_prog :
  ?fuel:int ->
  oracle:oracle option ->
  name:string ->
  input:Workload.input ->
  mem_size:int ->
  technique:technique ->
  coco:bool ->
  n_threads:int ->
  Mtprog.t ->
  metrics

(** Simulate compiled code on the reference input, and check that its
    final memory matches the oracle [expect] — computed by
    {!measure_reference} when absent. The check is skipped when the
    simulation ran out of [fuel]; when the reference did, the cell
    reports [fuel_exhausted]. {!run_matrix} computes the oracle once per
    workload instead of once per cell.
    @raise Failure on divergence.
    @raise Deadlock on deadlock, with a per-thread blocked report. *)
val measure :
  ?fuel:int ->
  ?expect:int array * int ->
  compiled ->
  metrics

(** The metrics of {!measure_reference}. With [expect], a completed
    simulation must also reproduce that oracle's memory and instruction
    count.
    @raise Failure when it does not. *)
val measure_single :
  ?fuel:int ->
  ?expect:int array * int ->
  Workload.t ->
  metrics

(** {2 The evaluation matrix}

    The Fig 1/7/8 matrix is [workloads x matrix_kinds] cells, one
    simulation each. {!run_matrix} executes them on a
    {!Gmt_parallel.Pool} in two phases and merges results in a fixed
    order: byte-identical output for every [jobs] value.
    - Phase 0 runs one task per workload: its single-threaded cell,
      which is also its row's oracle, then the row's {!analyze} and one
      {!partition} per technique.
    - Phase 1 runs the multi-threaded cells: each is the {!codegen} of
      its row's partition, simulated and checked against the row's
      oracle.

    A row's shared products cross the phase barrier and are only read
    after it. *)

type cell_kind = Single | Mt of technique * bool  (** technique, ±COCO *)

val cell_name : cell_kind -> string
(** ["single"], ["gremio"], ["gremio+coco"], ["dswp"], ["dswp+coco"]. *)

val matrix_kinds : cell_kind list
(** The five per-workload cells, in matrix order (single first). *)

(** Compile (if multi-threaded) and measure one cell: {!measure_single}
    or {!measure}. *)
val measure_cell :
  ?fuel:int ->
  ?expect:int array * int ->
  ?n_threads:int ->
  cell_kind ->
  Workload.t ->
  metrics

type timed = {
  metrics : metrics;
  wall_s : float;  (** cell wall-clock *)
  passes : (string * float) list;
      (** per-pass (name, milliseconds) breakdown captured via
          {!Gmt_obs.Obs.collect} — populated by {!run_matrix} regardless
          of the global tracing switch; order is span completion order.
          A multi-threaded cell's [compile] covers its {!codegen} only:
          the row's shared stages are in [shared_passes]. *)
}

type row = {
  rw : Workload.t;
  shared_wall_s : float;
      (** wall clock of the row's shared stages: {!analyze} and both
          {!partition}s *)
  shared_passes : (string * float) list;
      (** their per-pass breakdown, as {!timed}'s [passes]; each
          partition is named for its technique (["partition.gremio"]) *)
  st : timed;
  gremio : timed;
  gremio_coco : timed;
  dswp : timed;
  dswp_coco : timed;
}

(** [run_matrix ~jobs ws] evaluates the full matrix over [ws]: 55
    simulations for the 11-kernel suite. [jobs] defaults to
    {!Gmt_parallel.Pool.default_jobs}. A row whose reference ran out of
    [fuel] reports its MT cells [fuel_exhausted]. *)
val run_matrix :
  ?jobs:int ->
  ?fuel:int ->
  Workload.t list ->
  row list

(** Machine configuration used for a compiled program's simulation
    (32-entry queues for DSWP pipelines, single-entry otherwise;
    [n_cores] defaults to the paper's 2). *)
val machine_config : ?n_cores:int -> technique -> Gmt_machine.Config.t
