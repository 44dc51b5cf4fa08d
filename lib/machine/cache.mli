(** Set-associative LRU cache model (hit/miss only, no coherence traffic;
    latencies are charged by the simulator's hierarchy walk). *)

type t

(** [create ~size ~assoc ~line] — sizes in bytes; the number of sets is
    [size / (assoc * line)], rounded up to at least 1. *)
val create : size:int -> assoc:int -> line:int -> t

(** [access t ~addr] — [true] on hit. Misses allocate the line (LRU
    eviction). [addr] is a non-negative byte address. *)
val access : t -> addr:int -> bool

(** [probe t ~addr] — hit test without state change. *)
val probe : t -> addr:int -> bool

val hits : t -> int
val misses : t -> int
