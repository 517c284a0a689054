(* Order statistics for the benchmark report.

   Percentiles use the nearest-rank rule on a sorted copy.  A tail
   percentile is only reported when the sample supports it: the highest
   percentile (no higher than the one asked for) that still has at least
   [min_beyond] samples ranked above it.  The caller prints the sample
   count and the percentile actually used next to the value. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Index of the nearest-rank [p]-th percentile among [n] sorted samples. *)
let rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))

let percentile s p =
  if Array.length s = 0 then invalid_arg "Stats.percentile: no samples";
  s.(rank (Array.length s) p)

(* Samples ranked strictly above the [p]-th percentile. *)
let beyond n p = if n = 0 then 0 else n - 1 - rank n p

let median a = if Array.length a = 0 then nan else percentile (sorted a) 50.

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]
let min_beyond = 10

type tail = { pct : float; value : float; count : int }

let tail ?(max_pct = 99.) a =
  let s = sorted a in
  let n = Array.length s in
  List.find_map
    (fun p ->
      if p <= max_pct && beyond n p >= min_beyond then
        Some { pct = p; value = percentile s p; count = n }
      else None)
    ladder

(* The tail value, or the median (or [nan] when empty) when the sample is
   too small for any percentile on the ladder. *)
let tail_value ?max_pct a =
  match tail ?max_pct a with Some t -> t.value | None -> median a

let tail_label ?max_pct a =
  match tail ?max_pct a with
  | Some t -> Printf.sprintf "p%g of %d" t.pct t.count
  | None -> Printf.sprintf "median of %d (too few for a tail)" (Array.length a)
