type t = {
  n_sets : int;
  assoc : int;
  line : int;
  (* [log2 line] and [n_sets - 1] when those are powers of two, else -1:
     every level of the paper's machine indexes with a shift and a mask,
     and only odd geometries (a 5-set test L3) pay for the divisions. *)
  line_shift : int;
  set_mask : int;
  tags : int array;   (* n_sets * assoc; -1 = invalid *)
  stamp : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* MRU filter: way index of the most recently touched line and its
     tag (-1 = none). Same-line streaks — the common case for
     sequential loads — skip the set scan; the fast path performs
     exactly the bookkeeping the scan would (clock, LRU stamp, hit
     count), so stats and eviction order are bit-identical. *)
  mutable last_tag : int;
  mutable last_way : int;
}

let rec log2_from k n = if 1 lsl k = n then k else log2_from (k + 1) n

(* [log2 n] for a power of two [n > 0], else -1. *)
let log2_exact n = if n land (n - 1) = 0 then log2_from 0 n else -1

let create ~size ~assoc ~line =
  if assoc <= 0 || line <= 0 then invalid_arg "Cache.create";
  let n_sets = max 1 (size / (assoc * line)) in
  {
    n_sets;
    assoc;
    line;
    line_shift = log2_exact line;
    set_mask = (if log2_exact n_sets >= 0 then n_sets - 1 else -1);
    tags = Array.make (n_sets * assoc) (-1);
    stamp = Array.make (n_sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    last_tag = -1;
    last_way = 0;
  }

(* [locate] returns the hit way via an out-free scan (no tuple — these
   run once per simulated memory access, and a returned tuple would be
   the issue loops' only steady-state allocation). *)
let locate t ~base ~tag =
  let found = ref (-1) in
  for i = base to base + t.assoc - 1 do
    if t.tags.(i) = tag then found := i
  done;
  !found

let[@inline] tag_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line

let[@inline] set_base t tag =
  (if t.set_mask >= 0 then tag land t.set_mask else tag mod t.n_sets)
  * t.assoc

let probe t ~addr =
  let tag = tag_of t addr in
  locate t ~base:(set_base t tag) ~tag >= 0

let access t ~addr =
  t.clock <- t.clock + 1;
  let tag = tag_of t addr in
  if tag = t.last_tag then begin
    t.stamp.(t.last_way) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let base = set_base t tag in
    let found = locate t ~base ~tag in
    if found >= 0 then begin
      t.stamp.(found) <- t.clock;
      t.hits <- t.hits + 1;
      t.last_tag <- tag;
      t.last_way <- found;
      true
    end
    else begin
      (* Evict LRU way. *)
      let victim = ref base in
      for i = base + 1 to base + t.assoc - 1 do
        if t.stamp.(i) < t.stamp.(!victim) then victim := i
      done;
      t.tags.(!victim) <- tag;
      t.stamp.(!victim) <- t.clock;
      t.misses <- t.misses + 1;
      t.last_tag <- tag;
      t.last_way <- !victim;
      false
    end
  end

let hits t = t.hits
let misses t = t.misses
