(* Verdicts for one (workload, end-to-end metric) across the result sets
   of two commits, by the rules the benchmark's bounds are written for:

   - a side whose interquartile distance exceeds the bound (as a share of
     its median) cannot tell a regression from noise: the metric is
     unresolved, unless every new run reads better than every old run;
   - improved: the new side wins at least nine tenths of the seed-matched
     pairs, ties counting for neither, and the medians differ in the new
     side's favour by more than the old side's interquartile distance;
   - worse: the new median is worse than the old one by more than the
     bound;
   - otherwise no worse. *)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("Diff.better_of_string: " ^ s)

type verdict = Improved | No_worse | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type side = { n : int; median : float; q1 : float; q3 : float; spread : float }

let side xs =
  let q1, median, q3 = Stats.quartiles xs in
  {
    n = Array.length xs;
    median;
    q1;
    q3;
    spread = Stats.spread xs;
  }

let is_better better a b = match better with Lower -> a < b | Higher -> a > b

(* How much worse [b] is than [a], as a share of [a] (negative when
   better). *)
let worse_by better ~old ~new_ =
  let d = match better with Lower -> new_ -. old | Higher -> old -. new_ in
  if old = 0.0 then (if d > 0.0 then infinity else 0.0) else d /. Float.abs old

(* Pairs runs of the two sides by seed; sides without a common seed pair
   in order. *)
let pairs old new_ =
  let by_seed =
    List.filter_map
      (fun (s, o) ->
        match s with
        | None -> None
        | Some _ -> (
          match List.assoc_opt s new_ with
          | Some n -> Some (o, n)
          | None -> None))
      old
  in
  if by_seed <> [] then by_seed
  else
    let rec zip a b =
      match (a, b) with
      | (_, x) :: a', (_, y) :: b' -> (x, y) :: zip a' b'
      | _ -> []
    in
    zip old new_

let verdict ~better ~bound ~old ~new_ =
  let vals l = Array.of_list (List.map snd l) in
  let o = side (vals old) and n = side (vals new_) in
  let improved () =
    let ps = pairs old new_ in
    let wins = List.length (List.filter (fun (a, b) -> is_better better b a) ps) in
    ps <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length ps)
    && is_better better n.median o.median
    && Float.abs (n.median -. o.median) > o.q3 -. o.q1
  in
  let v =
    if o.spread > bound || n.spread > bound then
      let all_better =
        List.for_all
          (fun (_, b) -> List.for_all (fun (_, a) -> is_better better b a) old)
          new_
      in
      if not all_better then Unresolved
      else if improved () then Improved
      else No_worse
    else if improved () then Improved
    else if worse_by better ~old:o.median ~new_:n.median > bound then Worse
    else No_worse
  in
  (v, o, n)

(* Failed operations as a share of attempted ones. *)
let failed_share runs =
  let a, f = List.fold_left (fun (a, f) (a', f') -> (a + a', f + f')) (0, 0) runs in
  if a = 0 then 0.0 else float_of_int f /. float_of_int a

let failed_verdict ~old ~new_ =
  let o = failed_share old and n = failed_share new_ in
  ((if n > o then Worse else if n < o then Improved else No_worse), o, n)
