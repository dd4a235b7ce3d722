(* Differential testing of the three TE solving strategies.

   On randomly generated small instances the heuristic ({!Te.solve}), the
   exact MIP ({!Te.solve_mip}) and Benders decomposition
   ({!Te.solve_benders}) must agree on the optimal loss Φ, every returned
   allocation must pass the independent {!Prete_lp.Simplex.feasible}
   check against {!Resilience.capacity_model}, and warm-started re-solves
   must reproduce the cold objective bit-for-bit (within eps).

   Two generator regimes:
   - the Fig. 2 triangle, where the δ-rounding heuristic is provably
     vertex-exact: all three strategies must agree to 1e-6;
   - the square-with-diagonal, where the heuristic's rounding can land on
     a suboptimal coverage set: Benders and the MIP must still agree (both
     are exact), and the heuristic Φ is validated as an upper bound. *)

open Prete
open Prete_net

let triangle () =
  let fibers = [| (0, 1, 100.0); (0, 2, 100.0); (1, 2, 100.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (0, 2)); (2, (1, 2)) ])
  in
  Topology.make ~name:"fig2" ~node_names:[| "s1"; "s2"; "s3" |] ~fibers ~links

let square () =
  let fibers =
    [| (0, 1, 100.0); (1, 2, 100.0); (2, 3, 100.0); (3, 0, 100.0); (0, 2, 500.0) |]
  in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (1, 2)); (2, (2, 3)); (3, (3, 0)); (4, (0, 2)) ])
  in
  Topology.make ~name:"square" ~node_names:[| "n0"; "n1"; "n2"; "n3" |] ~fibers ~links

(* Random instance on a fixed topology shape: demands in [5, 20), cut
   probabilities in [0.005, 0.05), beta drawn from the levels the paper
   evaluates. *)
let random_problem ~square:sq rng =
  let topo = if sq then square () else triangle () in
  let pairs = if sq then [ (0, 2); (1, 3) ] else [ (0, 1); (0, 2) ] in
  let ts = Tunnels.build ~per_flow:2 topo pairs in
  let demands = Array.init 2 (fun _ -> Prete_util.Rng.uniform rng 5.0 20.0) in
  let probs =
    Array.init (Topology.num_fibers topo)
      (fun _ -> Prete_util.Rng.uniform rng 0.005 0.05)
  in
  let beta = [| 0.9; 0.95; 0.99 |].(Prete_util.Rng.int rng 3) in
  (ts, Te.make_problem ~ts ~demands ~probs ~beta ())

(* The capacity polytope built independently of the solvers: the
   allocation the solver returns must satisfy it (and its variable bounds)
   under the generic simplex feasibility checker. *)
let alloc_feasible ts (sol : Te.solution) =
  Prete_lp.Simplex.feasible (Resilience.capacity_model ts) sol.Te.alloc

(* Coverage constraint (Eqn. 5): the classes a solution marks covered
   must carry at least beta probability mass for every flow. *)
let coverage_ok (p : Te.problem) (sol : Te.solution) =
  let ok = ref true in
  Array.iteri
    (fun f cls ->
      let covered = ref 0.0 in
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          if sol.Te.delta.(f).(ci) then
            covered := !covered +. c.Scenario.Classes.prob)
        cls;
      if !covered < p.Te.beta -. 1e-9 then ok := false)
    sol.Te.classes;
  !ok

let prop_triangle_three_way =
  QCheck.Test.make ~name:"solvers agree on random triangle instances"
    ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 9000) in
      let ts, p = random_problem ~square:false rng in
      let h = Te.solve ~second_phase:false p in
      let e = Te.solve_mip p in
      let b = Te.solve_benders p in
      abs_float (h.Te.phi -. e.Te.phi) <= 1e-6
      && abs_float (b.Te.phi -. e.Te.phi) <= 1e-6
      && alloc_feasible ts h && alloc_feasible ts e && alloc_feasible ts b
      && coverage_ok p h && coverage_ok p e && coverage_ok p b)

let prop_square_exact_pair =
  QCheck.Test.make ~name:"benders matches mip on random square instances"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 17_000) in
      let ts, p = random_problem ~square:true rng in
      let h = Te.solve ~second_phase:false p in
      let e = Te.solve_mip p in
      let b = Te.solve_benders p in
      (* Both exact strategies agree; the rounding heuristic is a valid
         upper bound (exactness on this shape is not guaranteed). *)
      abs_float (b.Te.phi -. e.Te.phi) <= 1e-6
      && h.Te.phi >= e.Te.phi -. 1e-6
      && alloc_feasible ts h && alloc_feasible ts e && alloc_feasible ts b
      && coverage_ok p h && coverage_ok p e && coverage_ok p b)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm re-solve reproduces the cold objective"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 33_000) in
      let sq = Prete_util.Rng.int rng 2 = 0 in
      let ts, p = random_problem ~square:sq rng in
      let cold = Te.solve ~second_phase:false p in
      match cold.Te.basis with
      | None -> false (* a solved instance must surface its final basis *)
      | Some basis ->
        let warm = Te.solve ~second_phase:false ~warm:basis p in
        let cold_mip = Te.solve_mip ~warm_start:false p in
        let warm_mip = Te.solve_mip ~warm:basis p in
        abs_float (warm.Te.phi -. cold.Te.phi) <= 1e-9
        && abs_float (warm_mip.Te.phi -. cold_mip.Te.phi) <= 1e-6
        && alloc_feasible ts warm && alloc_feasible ts warm_mip)

let prop_benders_warm_chain =
  QCheck.Test.make
    ~name:"benders warm-chained across perturbed demands stays exact"
    ~count:30
    QCheck.(small_int)
    (fun seed ->
      (* The production pattern: consecutive epochs solve structurally
         identical problems with drifting demands, threading the basis.
         The chained Benders run must match a from-scratch MIP at every
         step. *)
      let rng = Prete_util.Rng.create (seed + 71_000) in
      let ts, p0 = random_problem ~square:false rng in
      let carry = ref None in
      let ok = ref true in
      for _ = 1 to 3 do
        let demands =
          Array.map
            (fun d -> Float.max 1.0 (d +. Prete_util.Rng.uniform rng (-2.0) 2.0))
            p0.Te.demands
        in
        let p = { p0 with Te.demands = demands } in
        let b = Te.solve_benders ?warm:!carry p in
        let e = Te.solve_mip ~warm_start:false p in
        if abs_float (b.Te.phi -. e.Te.phi) > 1e-6 || not (alloc_feasible ts b)
        then ok := false;
        carry := b.Te.basis
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dense vs LU engine differential suite (raw LPs)                      *)
(* ------------------------------------------------------------------ *)

module Lp = Prete_lp.Lp
module Simplex = Prete_lp.Simplex
module Mip = Prete_lp.Mip
module Solver_stats = Prete_lp.Solver_stats

(* [Simplex.certify] is the reference for every LU answer below: it
   needs no second engine, so it also covers sizes the dense oracle
   cannot reach. *)
let certified m (s : Simplex.solution) = Simplex.certify m s = Ok ()

let duals_agree m a b =
  let ok = ref true in
  for i = 0 to Lp.num_constraints m - 1 do
    if abs_float (Simplex.dual a i -. Simplex.dual b i) > 1e-6 then ok := false
  done;
  !ok

let prop_engines_agree_feasible =
  QCheck.Test.make ~name:"dense and lu agree on random feasible LPs"
    ~count:150
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 41_000) in
      let spec = Lp_gen.random_lp_coefs rng in
      let m = Lp_gen.build_lp spec in
      match
        (Simplex.solve ~engine:Simplex.Dense m, Simplex.solve ~engine:Simplex.Lu m)
      with
      | Simplex.Optimal d, Simplex.Optimal l ->
        abs_float (d.Simplex.objective -. l.Simplex.objective) <= 1e-6
        && d.Simplex.engine = Simplex.Dense
        && l.Simplex.engine = Simplex.Lu
        && certified m l && certified m d
        && duals_agree m d l
      | _ -> false)

let prop_engines_agree_infeasible =
  QCheck.Test.make ~name:"dense and lu agree on infeasible LPs" ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 53_000) in
      let ((nv, _, _, _, _) as spec) = Lp_gen.random_lp_coefs rng in
      let m = Lp_gen.build_lp spec in
      (* Contradictory pair on a fresh random direction: a.x >= r + 1 and
         a.x <= r - 1 can never both hold. *)
      let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-3.0) 3.0) in
      let terms =
        Array.to_list (Array.mapi (fun j c -> (c, Lp.var_of_index m j)) coefs)
      in
      let r = Prete_util.Rng.uniform rng (-5.0) 5.0 in
      ignore (Lp.add_constraint m terms Lp.Ge (r +. 1.0));
      ignore (Lp.add_constraint m terms Lp.Le (r -. 1.0));
      (match Simplex.solve ~engine:Simplex.Dense m with
      | Simplex.Infeasible -> true
      | _ -> false)
      &&
      match Simplex.solve ~engine:Simplex.Lu m with
      | Simplex.Infeasible -> true
      | _ -> false)

(* The ray [z] has no constraint rows, so presolve flags the LU solve
   unbounded at once; the LU engine then decides feasibility of the
   constraints alone.  The second half adds a contradiction, under which
   the same ray must yield [Infeasible], not [Unbounded]. *)
let prop_engines_agree_unbounded =
  QCheck.Test.make ~name:"dense and lu agree on unbounded LPs" ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 67_000) in
      let ((nv, _, _, dir, _) as spec) = Lp_gen.random_lp_coefs rng in
      let m = Lp_gen.build_lp spec in
      (* A ray the constraints never see: z is free upward and improves
         the objective, so the feasible instance becomes unbounded. *)
      let z = Lp.add_var m "z" in
      let zc = if dir = Lp.Maximize then 1.0 else -1.0 in
      let dirn, obj = Lp.Internal.objective m in
      let terms = ref [ (zc, z) ] in
      Array.iteri
        (fun j c -> if c <> 0.0 then terms := (c, Lp.var_of_index m j) :: !terms)
        obj;
      Lp.set_objective m dirn !terms;
      let outcome engine = Simplex.solve ~engine m in
      let unbounded =
        (match outcome Simplex.Dense with Simplex.Unbounded -> true | _ -> false)
        && match outcome Simplex.Lu with Simplex.Unbounded -> true | _ -> false
      in
      let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-3.0) 3.0) in
      let row = Array.to_list (Array.mapi (fun j c -> (c, Lp.var_of_index m j)) coefs) in
      ignore (Lp.add_constraint m row Lp.Ge 1.0);
      ignore (Lp.add_constraint m row Lp.Le (-1.0));
      unbounded
      && (match outcome Simplex.Dense with Simplex.Infeasible -> true | _ -> false)
      && match outcome Simplex.Lu with Simplex.Infeasible -> true | _ -> false)

(* The certificate must reject what is not an optimum: a shifted
   objective, a dual with the wrong sign, and a suboptimal feasible
   point (all variables at zero is feasible for this Le-only model). *)
let test_certify_rejects () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (2.0, y) ] Lp.Le 4.0);
  ignore (Lp.add_constraint m [ (3.0, x); (1.0, y) ] Lp.Le 6.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ];
  match Simplex.solve ~engine:Simplex.Lu m with
  | Simplex.Optimal s ->
    let rejects what s' =
      Alcotest.(check bool) what true (Result.is_error (Simplex.certify m s'))
    in
    Alcotest.(check bool) "optimum certified" true (certified m s);
    rejects "shifted objective" { s with Simplex.objective = s.Simplex.objective +. 0.5 };
    rejects "wrong dual sign"
      { s with Simplex.duals = Array.map (fun d -> -.d) s.Simplex.duals };
    rejects "suboptimal point"
      { s with Simplex.values = [| 0.0; 0.0 |]; objective = 0.0 };
    rejects "degraded" { s with Simplex.degraded = true }
  | _ -> Alcotest.fail "instance must be optimal"

(* ------------------------------------------------------------------ *)
(* LU-engine differential suite: presolve + bounded variables + sparse
   LU basis against the certificate and the dense oracle.               *)
(* ------------------------------------------------------------------ *)

let prop_lu_three_way_agree =
  QCheck.Test.make ~name:"lu matches dense objectives and duals"
    ~count:150
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 101_000) in
      let spec = Lp_gen.random_lp_coefs rng in
      let m = Lp_gen.build_lp spec in
      match
        (Simplex.solve ~engine:Simplex.Lu m, Simplex.solve ~engine:Simplex.Dense m)
      with
      | Simplex.Optimal l, Simplex.Optimal d ->
        abs_float (l.Simplex.objective -. d.Simplex.objective) <= 1e-6
        && l.Simplex.engine = Simplex.Lu
        && certified m l
        && duals_agree m l d
      | _ -> false)

let prop_lu_bound_respect =
  QCheck.Test.make
    ~name:"lu solutions respect 0 <= x <= u without explicit bound rows"
    ~count:100
    QCheck.(small_int)
    (fun seed ->
      (* Tight finite upper bounds that actually bind at the optimum:
         the bounded ratio test must stop at them (the dense engine
         sees the same bounds as explicit rows). *)
      let rng = Prete_util.Rng.create (seed + 113_000) in
      let m, ub = Lp_gen.bounded_lp rng in
      match
        (Simplex.solve ~engine:Simplex.Lu m, Simplex.solve ~engine:Simplex.Dense m)
      with
      | Simplex.Optimal l, Simplex.Optimal d ->
        abs_float (l.Simplex.objective -. d.Simplex.objective) <= 1e-6
        && certified m l
        && Array.for_all2
             (fun v u -> v >= -1e-9 && v <= u +. 1e-9)
             l.Simplex.values ub
      | _ -> false)

let test_lu_bound_flips () =
  (* Loose budget row, binding upper bounds: every entering column
     traverses its own range, so the optimum is reached purely by bound
     flips — witnessed in the telemetry. *)
  let m = Lp.create () in
  let n = 8 in
  let xs =
    Array.init n (fun j ->
        Lp.add_var m ~ub:(1.0 +. float_of_int j) (Printf.sprintf "x%d" j))
  in
  ignore
    (Lp.add_constraint m
       (Array.to_list (Array.map (fun x -> (1.0, x)) xs))
       Lp.Le 1000.0);
  Lp.set_objective m Lp.Maximize
    (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  match Simplex.solve ~engine:Simplex.Lu m with
  | Simplex.Optimal s ->
    Alcotest.(check (float 1e-9)) "all at upper" 36.0 s.Simplex.objective;
    Array.iteri
      (fun j v ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "x%d at its bound" j)
          (1.0 +. float_of_int j) v)
      s.Simplex.values;
    Alcotest.(check bool) "bound flips recorded" true (s.Simplex.bound_flips >= n);
    Alcotest.(check bool) "certified" true (certified m s)
  | _ -> Alcotest.fail "bounded instance must be optimal"

let prop_lu_presolve_roundtrip =
  QCheck.Test.make
    ~name:"presolve+postsolve recovers the original-space optimum"
    ~count:100
    QCheck.(small_int)
    (fun seed ->
      (* Salt the instance with redundancy presolve must chew through:
         a scaled duplicate row, a singleton bound row and an empty
         column.  Both engines see the same salted model; the LU
         engine's answer must land back in the original space. *)
      let rng = Prete_util.Rng.create (seed + 127_000) in
      let m = Lp_gen.salted_lp rng in
      match
        (Simplex.solve ~engine:Simplex.Lu m, Simplex.solve ~engine:Simplex.Dense m)
      with
      | Simplex.Optimal l, Simplex.Optimal d ->
        abs_float (l.Simplex.objective -. d.Simplex.objective) <= 1e-6
        && certified m l
        && Array.length l.Simplex.values = Lp.num_vars m
        && Array.length l.Simplex.duals = Lp.num_constraints m
        && l.Simplex.presolve_rows >= 1
        && l.Simplex.presolve_cols >= 1
      | _ -> false)

let prop_lu_warm_equals_cold =
  QCheck.Test.make
    ~name:"lu warm rhs-only re-solve reproduces the cold objective"
    ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 139_000) in
      let spec = Lp_gen.random_lp_coefs rng in
      let base = Lp_gen.build_lp spec in
      let perturbed = Lp_gen.build_lp ~slack_scale:0.7 spec in
      match Simplex.solve ~engine:Simplex.Lu base with
      | Simplex.Optimal cold when certified base cold ->
        let cold_p =
          match Simplex.solve ~engine:Simplex.Lu perturbed with
          | Simplex.Optimal s when certified perturbed s -> Some s.Simplex.objective
          | _ -> None
        in
        let warm_p =
          match
            Simplex.solve ~engine:Simplex.Lu ~warm:cold.Simplex.basis perturbed
          with
          | Simplex.Optimal s ->
            (* Presolve keeps the reduced structure across rhs-only
               drift, so the basis reinstalls exactly: no Phase 1, and
               the reinstall counts as an LU factorization. *)
            if
              (not s.Simplex.warm_used)
              || (not s.Simplex.phase1_skipped)
              || s.Simplex.refactorizations < 1
              || not (certified perturbed s)
            then None
            else Some s.Simplex.objective
          | _ -> None
        in
        (match (cold_p, warm_p) with
        | Some c, Some w -> abs_float (c -. w) <= 1e-9
        | _ -> true (* tightened capacities may make the instance infeasible *))
      | _ -> false)

(* Branch-and-bound must forward the engine choice to every node re-solve;
   the per-engine counters in the stats record witness it. *)
let test_mip_engine_passdown () =
  let knapsack () =
    let m = Lp.create () in
    let xs =
      Array.init 6 (fun j -> Lp.add_var m ~binary:true (Printf.sprintf "b%d" j))
    in
    let w = [| 3.0; 5.0; 7.0; 4.0; 6.0; 2.0 |] in
    let v = [| 4.0; 6.0; 9.0; 5.0; 8.0; 3.0 |] in
    ignore
      (Lp.add_constraint m
         (Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) w))
         Lp.Le 13.0);
    Lp.set_objective m Lp.Maximize
      (Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) v));
    m
  in
  let run engine =
    let st = Solver_stats.create () in
    (match Mip.solve ~stats:st ~engine (knapsack ()) with
    | Mip.Optimal _ -> ()
    | _ -> Alcotest.fail "knapsack must solve to optimality");
    st
  in
  let st = run Simplex.Lu in
  Alcotest.(check bool) "several node LPs" true (st.Solver_stats.solves > 1);
  Alcotest.(check int) "all nodes lu" st.Solver_stats.solves
    st.Solver_stats.lu_solves;
  Alcotest.(check int) "no dense fallback" 0 st.Solver_stats.dense_solves;
  let st = run Simplex.Dense in
  Alcotest.(check int) "all nodes dense" st.Solver_stats.solves
    st.Solver_stats.dense_solves;
  Alcotest.(check int) "no lu fallback" 0 st.Solver_stats.lu_solves

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_solvers_diff"
    [
      ( "differential",
        qsuite
          [
            prop_triangle_three_way;
            prop_square_exact_pair;
            prop_warm_equals_cold;
            prop_benders_warm_chain;
          ] );
      ( "engine",
        qsuite
          [
            prop_engines_agree_feasible;
            prop_engines_agree_infeasible;
            prop_engines_agree_unbounded;
          ]
        @ [ Alcotest.test_case "mip forwards engine to nodes" `Quick
              test_mip_engine_passdown;
            Alcotest.test_case "certify rejects a non-optimum" `Quick
              test_certify_rejects ] );
      ( "engine.lu",
        qsuite
          [
            prop_lu_three_way_agree;
            prop_lu_bound_respect;
            prop_lu_presolve_roundtrip;
            prop_lu_warm_equals_cold;
          ]
        @ [ Alcotest.test_case "bound flips reach the optimum" `Quick
              test_lu_bound_flips ] );
    ]
