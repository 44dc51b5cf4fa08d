(** The Program Dependence Graph (Ferrante et al. [5]).

    Nodes are instruction ids; arcs carry the dependences a partition of
    instructions into threads must respect (Section 2 of the paper):

    - register flow dependences (def → use, via reaching definitions;
      anti/output register dependences are omitted because each thread owns
      a private register file, so only value flow crosses threads);
    - memory dependences (RAW/WAR/WAW between aliasing accesses; inside a
      common loop these are bidirectional, since iteration order cannot be
      proved statically);
    - direct control dependences (branch → controlled instruction);
    - transitive control dependences (branch → target of a dependence whose
      source the branch transitively controls), which MTCG needs to
      reproduce the condition under which a dependence fires. *)

open Gmt_ir

type kind =
  | Reg of Reg.t
  | Mem of Gmt_analysis.Alias.kind * Instr.region
  | Ctrl
  | Ctrl_trans

type arc = { src : int; dst : int; kind : kind }

type t

(** [build ?prune_mem f] — with [prune_mem] (the machine memory size),
    the {!Gmt_analysis.Memdis} abstract-interpretation disambiguator
    drops memory arcs between accesses whose address sets it proves
    disjoint, an instance of the "more powerful memory disambiguation"
    the paper suggests would let DSWP benefit more from COCO. Addresses
    wrap modulo [prune_mem], so [b+0] and [b+prune_mem] stay dependent.
    The count of arcs so pruned is {!mem_pruned} (and the
    [pdg.arcs.mem_pruned] metric). Off by default so the raw PDG
    semantics — and every direct caller — are unchanged;
    {!Gmt_core.Velocity.compile} turns it on, and {!Gmt_verify.Verify}
    re-derives the disjointness facts from the source function. *)
val build : ?prune_mem:int -> Func.t -> t

(** Memory arcs dropped by the [prune_mem] disambiguator (0 when off). *)
val mem_pruned : t -> int

(** [filter_arcs t ~f] keeps only arcs satisfying [f], rebuilding the
    adjacency tables. Intended for fault-injection tests (simulating an
    unsound pruner); everything else is preserved. *)
val filter_arcs : t -> f:(arc -> bool) -> t

val func : t -> Func.t
val arcs : t -> arc list

(** Instruction ids in CFG order. *)
val nodes : t -> int list

(** Dense digraph view for SCC/topological algorithms:
    [(g, node_of_id, id_of_node)]. *)
val to_digraph : t -> Gmt_graphalg.Digraph.t * (int -> int) * (int -> int)

(** Branch instruction ids transitively controlling an instruction
    (the control closure of its block). *)
val control_closure : t -> int -> int list

(** Incoming / outgoing dependence arcs of an instruction. *)
val preds : t -> int -> arc list

val succs : t -> int -> arc list

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
