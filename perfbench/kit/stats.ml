(* Order statistics used by the benchmark's reports and its diff mode. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so that spreads computed here agree with anyone checking the
   benchmark from Python.  A single sample gives three equal cut points. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld = 0 then invalid_arg "Stats.quartiles: empty sample";
  if ld = 1 then (xs.(0), xs.(0), xs.(0))
  else begin
    let d = sorted xs in
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then infinity else (q3 -. q1) /. Float.abs med

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let a = sorted xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly beyond the nearest-rank [p]th percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile of [tail_ladder] that has at least ten samples
   beyond it, with its value; [None] below 20 samples, where not even the
   median has ten samples above it. *)
let tail xs =
  let n = Array.length xs in
  List.find_opt (fun p -> n > 0 && beyond n p >= 10) tail_ladder
  |> Option.map (fun p -> (p, percentile xs p))

(* [percentile xs p] when at least ten samples lie beyond it, else [None]. *)
let percentile_if_resolved xs p =
  if beyond (Array.length xs) p >= 10 then Some (percentile xs p) else None
