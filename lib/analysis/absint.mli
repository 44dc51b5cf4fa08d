(** Generic abstract-interpretation fixpoint engine over GMT-IR CFGs.

    Clients provide a lattice with widening ({!DOMAIN}); the engine runs a
    worklist in reverse postorder, widens at loop heads (the union of
    {!Loopnest} headers and retreating-edge targets of the engine's own
    DFS, so irreducible CFGs still terminate) after a configurable delay,
    and finishes with bounded narrowing rounds to claw back precision the
    widening gave up.

    The solution is edge-sensitive: a terminator's post-state is refined
    per outgoing edge through {!DOMAIN.assume} before it reaches the
    successor, which is how branch conditions bound loop counters. *)

open Gmt_ir

module type DOMAIN = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val equal : t -> t -> bool
  val join : t -> t -> t

  (** [widen old next] — must over-approximate [join old next] and
      guarantee stabilization of any ascending chain. *)
  val widen : t -> t -> t

  (** [narrow old next] — refine [old] with [next]; must satisfy
      [next <= narrow old next <= old]. *)
  val narrow : t -> t -> t

  (** Abstract effect of one instruction (terminators included). *)
  val transfer : Instr.t -> t -> t

  (** [assume term slot st] — refine the post-state of terminator [term]
      along its [slot]-th target edge (slot 0 of a branch is the taken
      edge). Must return [st] (or better) and may return bottom for an
      edge proved dead. *)
  val assume : Instr.t -> int -> t -> t
end

module Make (D : DOMAIN) : sig
  type result

  (** [solve ~entry f] — [entry] is the abstract state at function entry.
      A widening point joins on its first 2 visits and widens from the
      third; the descending (narrowing) iteration runs at most 2 rounds. *)
  val solve : entry:D.t -> Func.t -> result

  (** Abstract state at a block's start; bottom for unreachable blocks. *)
  val block_in : result -> Instr.label -> D.t

  (** State just before / after an instruction, by id (replayed from the
      block solution on first use).
      @raise Not_found for unknown instruction ids. *)
  val before : result -> int -> D.t

  val after : result -> int -> D.t

  (** Total block-processing steps the solver took (ascending plus
      narrowing); a proxy for convergence speed. *)
  val iterations : result -> int

  (** Number of CFG blocks (solver nodes). *)
  val n_nodes : result -> int

  val func : result -> Func.t
end
