(* Exact order statistics over raw samples. Percentiles are never read
   from a bucketed histogram here: one log-linear bucket step (12.5%) is
   wider than the regression bounds the benchmark promises. *)

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* A percentile is only trusted with at least this many samples above
   it; fewer and the tail is a handful of points. *)
let min_beyond = 10

(* Nearest-rank [pct]-th percentile of a sorted array: the smallest
   sample with at least [pct]% of all samples at or below it. [None]
   when fewer than {!min_beyond} samples lie above it. Integer rank
   arithmetic, so [pct = 90] over 100 samples is rank 90, not 91. *)
let percentile a pct =
  let n = Array.length a in
  let rank = max 1 (((pct * n) + 99) / 100) in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)
