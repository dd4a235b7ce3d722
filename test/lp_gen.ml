(* Seeded random LP generators shared by the engine differential suite
   (test_solvers_diff) and the bit-identity pins (test_golden). *)

module Lp = Prete_lp.Lp
module Rng = Prete_util.Rng

(* Random bounded LP, feasible by construction: continuous-uniform
   coefficients (ties and degenerate optima have measure zero, so the
   optimal basis — and with it the dual vector — is generically unique),
   rhs placed around a known point x0 >= 0.  [slack] controls the
   inequality slacks, so two calls with the same [rng] state and
   different slacks differ in rhs only. *)
let random_lp_coefs rng =
  let nv = 2 + Rng.int rng 6 in
  let nc = 2 + Rng.int rng 8 in
  let x0 = Array.init nv (fun _ -> Rng.uniform rng 0.0 5.0) in
  (* At most nv-1 equality rows: every Eq row passes through x0 by
     construction, so nv or more of them are linearly dependent and the
     optimal duals stop being unique — the engines could then disagree on
     the dual vector while both being right. *)
  let eq_left = ref (nv - 1) in
  let rows =
    Array.init nc (fun _ ->
        let coefs = Array.init nv (fun _ -> Rng.uniform rng (-3.0) 3.0) in
        let sense = Rng.int rng 3 in
        let sense = if sense = 2 && !eq_left <= 0 then Rng.int rng 2 else sense in
        if sense = 2 then decr eq_left;
        (coefs, sense, Rng.uniform rng 0.5 5.0))
  in
  let dir = if Rng.int rng 2 = 0 then Lp.Minimize else Lp.Maximize in
  let obj = Array.init nv (fun _ -> Rng.uniform rng (-2.0) 2.0) in
  (nv, x0, rows, dir, obj)

let build_lp ?(slack_scale = 1.0) (nv, x0, rows, dir, obj) =
  let m = Lp.create () in
  let xs = Array.init nv (fun j -> Lp.add_var m ~ub:50.0 (Printf.sprintf "x%d" j)) in
  Array.iter
    (fun (coefs, sense, slack) ->
      let lhs0 = ref 0.0 in
      Array.iteri (fun j c -> lhs0 := !lhs0 +. (c *. x0.(j))) coefs;
      let terms = Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) coefs) in
      ignore
        (match sense with
        | 0 -> Lp.add_constraint m terms Lp.Le (!lhs0 +. (slack_scale *. slack))
        | 1 -> Lp.add_constraint m terms Lp.Ge (!lhs0 -. (slack_scale *. slack))
        | _ -> Lp.add_constraint m terms Lp.Eq !lhs0))
    rows;
  Lp.set_objective m dir (Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) obj));
  m

(* Tight finite upper bounds that bind at the optimum under one budget
   row: the bounded ratio test must stop at them. *)
let bounded_lp rng =
  let nv = 2 + Rng.int rng 5 in
  let ub = Array.init nv (fun _ -> Rng.uniform rng 0.5 4.0) in
  let m = Lp.create () in
  let xs = Array.init nv (fun j -> Lp.add_var m ~ub:ub.(j) (Printf.sprintf "x%d" j)) in
  let budget = Rng.uniform rng 1.0 6.0 in
  ignore (Lp.add_constraint m (Array.to_list (Array.map (fun x -> (1.0, x)) xs)) Lp.Le budget);
  Lp.set_objective m Lp.Maximize
    (Array.to_list (Array.map (fun x -> (Rng.uniform rng 0.5 3.0, x)) xs));
  (m, ub)

(* A random LP salted with redundancy presolve must chew through: a
   scaled duplicate of row 0, a singleton bound row and an empty
   column. *)
let salted_lp rng =
  let ((_, _, rows, _, _) as spec) = random_lp_coefs rng in
  let m = build_lp spec in
  let coefs0, sense0, _ = rows.(0) in
  let dup_sense = match sense0 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq in
  let rhs0 = (Lp.Internal.constraints m).(0).Lp.Internal.rhs in
  ignore
    (Lp.add_constraint m
       (Array.to_list (Array.mapi (fun j c -> (1.7 *. c, Lp.var_of_index m j)) coefs0))
       dup_sense (1.7 *. rhs0));
  ignore (Lp.add_constraint m [ (3.0, Lp.var_of_index m 0) ] Lp.Le (3.0 *. 49.9));
  ignore (Lp.add_var m "pad");
  m
