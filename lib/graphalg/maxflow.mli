(** Maximum flow / minimum s-t cut (Edmonds–Karp), as used by COCO to place
    inter-thread communication (Section 3.1 of the paper).

    Capacities are non-negative integers; {!infinity} marks arcs that must
    never participate in a minimum cut (the paper's "cost set to infinity"). *)

type t

(** A capacity large enough to never sit on a finite min cut, yet safe from
    overflow when a few thousand such arcs are summed. *)
val infinity : int

(** [create n] is an empty flow network on nodes [0 .. n-1]. *)
val create : int -> t

(** [add_arc t u v cap] adds a directed arc with capacity [cap >= 0]; adding
    the same arc twice accumulates capacity (saturating at {!infinity}).
    Returns the arc's identifier. *)
val add_arc : t -> int -> int -> int -> int

val n_nodes : t -> int

(** [max_flow t ~src ~sink] computes the maximum flow value. Result is
    [>= infinity] when no finite cut separates [src] from [sink]. *)
val max_flow : t -> src:int -> sink:int -> int

type cut = {
  value : int;                   (** total capacity crossing the cut *)
  src_side : bool array;         (** nodes reachable from [src] in the residual graph *)
  arcs : (int * int * int) list; (** saturated crossing arcs [(u, v, arc_id)] *)
}

(** [min_cut t ~src ~sink] computes a minimum s-t cut. The returned [arcs]
    are exactly the arcs from the source side to the sink side. *)
val min_cut : t -> src:int -> sink:int -> cut

(** Original (capacity-at-creation) endpoints and capacity of an arc. *)
val arc_info : t -> int -> int * int * int
