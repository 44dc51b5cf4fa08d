(** Generic iterative data-flow engine over CFGs.

    Problems provide a per-instruction transfer function; the engine
    computes a fixpoint of block-boundary facts with a worklist. A
    block's per-instruction facts are computed together, on the first
    point query into that block, and kept: every later query into the
    block is a lookup. Both the classic analyses (liveness, reaching
    definitions) and COCO's thread-aware analyses (SAFE, liveness w.r.t.
    a target thread) instantiate this functor.

    A {!Make.result} fills that per-block store as it is queried, so it
    is not safe to share between domains: each domain solves its own. *)

open Gmt_ir

type direction = Forward | Backward

module type PROBLEM = sig
  type fact

  val direction : direction
  val equal : fact -> fact -> bool

  (** Confluence operator (set union for may-problems, intersection for
      must-problems). *)
  val meet : fact -> fact -> fact

  (** Fact at the boundary: function entry for forward problems, the
      point after every [Return] for backward problems. *)
  val boundary : fact

  (** Optimistic initial value for interior points (bottom for
      may-problems, top/universe for must-problems). *)
  val start : fact

  (** [transfer i fact] is the fact after [i] given the fact before it
      (forward), or before [i] given the fact after it (backward). *)
  val transfer : Instr.t -> fact -> fact
end

module Make (P : PROBLEM) : sig
  type result

  val solve : Cfg.t -> result

  (** Fact at a block's start (before its first instruction). *)
  val block_in : result -> Instr.label -> P.fact

  (** Fact at a block's end (after its terminator). *)
  val block_out : result -> Instr.label -> P.fact

  (** Fact at the point just before / just after an instruction, by id.
      @raise Not_found for unknown instruction ids. *)
  val before : result -> int -> P.fact

  val after : result -> int -> P.fact
end
