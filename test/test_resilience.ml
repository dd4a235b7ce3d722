(* Tests for the fault-tolerant control loop: the anytime (deadline /
   work-budget) solver semantics and the Resilience fallback ladder. *)

open Prete
open Prete_net

let check_close eps = Alcotest.(check (float eps))

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

let fixture () =
  let topo = square () in
  let ts = Tunnels.build topo [ (0, 2); (1, 3) ] in
  (topo, ts)

let good_plan ts demands = Resilience.equal_split ts ~demands

let garbage_plan (ts : Tunnels.t) =
  (* Wildly oversubscribed: must fail validation. *)
  {
    Availability.p_alloc = Array.make (Array.length ts.Tunnels.tunnels) 1e6;
    p_ts = ts;
    p_admitted = None;
    p_degraded = false;
  }

(* ------------------------------------------------------------------ *)
(* Anytime solver semantics                                             *)
(* ------------------------------------------------------------------ *)

let test_te_expired_deadline_raises_timeout () =
  (* A deadline already in the past leaves no room for any incumbent. *)
  let _, ts = fixture () in
  let p =
    Te.make_problem ~ts ~demands:[| 5.0; 5.0 |]
      ~probs:[| 0.02; 0.03; 0.01; 0.02; 0.01 |] ~beta:0.9 ()
  in
  let stale = Prete_util.Clock.now () -. 1.0 in
  Alcotest.check_raises "solve" Prete_lp.Simplex.Timeout (fun () ->
      ignore (Te.solve ~deadline:stale p));
  Alcotest.check_raises "admission" Prete_lp.Simplex.Timeout (fun () ->
      ignore (Te.solve_admission ~deadline:stale p));
  Alcotest.check_raises "mip" Prete_lp.Simplex.Timeout (fun () ->
      ignore (Te.solve_mip ~deadline:stale p));
  Alcotest.check_raises "benders" Prete_lp.Simplex.Timeout (fun () ->
      ignore (Te.solve_benders ~deadline:stale p))

let test_te_generous_deadline_not_degraded () =
  let _, ts = fixture () in
  let p =
    Te.make_problem ~ts ~demands:[| 5.0; 5.0 |]
      ~probs:[| 0.02; 0.03; 0.01; 0.02; 0.01 |] ~beta:0.9 ()
  in
  let sol = Te.solve ~deadline:(Prete_util.Clock.deadline_after 3600.0) p in
  Alcotest.(check bool) "not degraded" false sol.Te.degraded;
  let unbounded = Te.solve p in
  check_close 1e-9 "same phi as unbounded solve" unbounded.Te.phi sol.Te.phi

let test_mip_node_limit_returns_incumbent_option () =
  let open Prete_lp in
  let m = Lp.create () in
  let a = Lp.add_var m ~binary:true "a" in
  let b = Lp.add_var m ~binary:true "b" in
  ignore (Lp.add_constraint m [ (1.0, a); (1.0, b) ] Lp.Le 1.0);
  Lp.set_objective m Lp.Maximize [ (2.0, a); (3.0, b) ];
  (match Mip.solve ~max_nodes:0 m with
  | Mip.Node_limit None -> ()
  | _ -> Alcotest.fail "expected Node_limit None when no node was explored");
  match Mip.solve m with
  | Mip.Optimal sol -> check_close 1e-9 "optimum" 3.0 sol.Mip.objective
  | _ -> Alcotest.fail "expected Optimal without a node limit"

(* ------------------------------------------------------------------ *)
(* Controller.wall / run                                                *)
(* ------------------------------------------------------------------ *)

let test_controller_wall_returns_result_and_duration () =
  let r, d = Controller.wall (fun () -> 40 + 2) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative duration" true (d >= 0.0)

let test_clock_monotone () =
  let t0 = Prete_util.Clock.now () in
  let t1 = Prete_util.Clock.now () in
  Alcotest.(check bool) "monotone" true (t1 >= t0);
  Alcotest.(check bool) "elapsed non-negative" true
    (Prete_util.Clock.elapsed_since t1 >= 0.0);
  Alcotest.(check bool) "unset deadline never expires" false
    (Prete_util.Clock.expired None);
  Alcotest.(check bool) "past deadline expires" true
    (Prete_util.Clock.expired (Some (t1 -. 1.0)))

(* ------------------------------------------------------------------ *)
(* Fallback ladder                                                      *)
(* ------------------------------------------------------------------ *)

let test_ladder_primary_success () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> (good_plan ts demands, None))
      ()
  in
  Alcotest.(check bool) "primary rung" true (o.Resilience.rung = Resilience.Primary);
  Alcotest.(check bool) "no cause" true (o.Resilience.cause = None);
  Alcotest.(check int) "one attempt" 1 (List.length o.Resilience.attempts);
  Alcotest.(check bool) "feasible" true (Resilience.plan_feasible ts o.Resilience.plan)

let test_ladder_falls_back_to_cache () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  (* Warm the cache with a primary success... *)
  ignore
    (Resilience.plan_epoch ladder ~ts ~demands
       ~primary:(fun ~warm:_ () -> (good_plan ts demands, None))
       ());
  (* ...then time the primary out. *)
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> raise Prete_lp.Simplex.Timeout)
      ()
  in
  Alcotest.(check bool) "cached rung" true (o.Resilience.rung = Resilience.Cached);
  Alcotest.(check bool) "timeout cause" true
    (o.Resilience.cause = Some Resilience.Solver_timeout);
  Alcotest.(check bool) "feasible" true (Resilience.plan_feasible ts o.Resilience.plan)

let test_ladder_cold_cache_reaches_equal_split () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> raise (Te.Infeasible_problem "beta too high"))
      ()
  in
  Alcotest.(check bool) "equal-split rung" true
    (o.Resilience.rung = Resilience.Equal_split);
  (match o.Resilience.cause with
  | Some (Resilience.Infeasible_beta _) -> ()
  | _ -> Alcotest.fail "expected Infeasible_beta as the root cause");
  Alcotest.(check int) "primary, cached, equal-split attempts" 3
    (List.length o.Resilience.attempts);
  Alcotest.(check bool) "feasible" true (Resilience.plan_feasible ts o.Resilience.plan)

let test_ladder_rejects_infeasible_primary_plan () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> (garbage_plan ts, None))
      ()
  in
  Alcotest.(check bool) "not primary" true (o.Resilience.rung <> Resilience.Primary);
  Alcotest.(check bool) "rejected cause" true
    (o.Resilience.cause = Some Resilience.Plan_rejected);
  Alcotest.(check bool) "feasible" true (Resilience.plan_feasible ts o.Resilience.plan)

let test_ladder_retries_with_backoff () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create ~max_tries:3 ~base_backoff_s:0.5 () in
  let calls = ref 0 in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () ->
        incr calls;
        if !calls < 3 then raise Prete_lp.Simplex.Timeout
        else (good_plan ts demands, None))
      ()
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check bool) "primary rung after retries" true
    (o.Resilience.rung = Resilience.Primary);
  (* Charged backoff: 0.5 before try 2, 1.0 before try 3. *)
  check_close 1e-9 "exponential charged backoff" 1.5 o.Resilience.backoff_s

let test_ladder_telemetry_gap_skips_primary () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  let called = ref false in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands ~telemetry_gap:true
      ~primary:(fun ~warm:_ () ->
        called := true;
        (good_plan ts demands, None))
      ()
  in
  Alcotest.(check bool) "primary never called" false !called;
  Alcotest.(check bool) "gap cause" true
    (o.Resilience.cause = Some Resilience.Telemetry_gap);
  Alcotest.(check bool) "fallback rung" true (o.Resilience.rung <> Resilience.Primary)

let test_ladder_notes_match_attempts () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  let o =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm:_ () -> raise Prete_lp.Simplex.Timeout)
      ()
  in
  let notes = Resilience.notes o in
  Alcotest.(check int) "one note per attempt" (List.length o.Resilience.attempts)
    (List.length notes);
  List.iter
    (fun n ->
      Alcotest.(check bool) "TE stage" true
        (n.Controller.note_stage = Controller.Te_compute))
    notes;
  (* Notes ride on the pipeline report. *)
  let (), report =
    Controller.run
      ~infer:(fun () -> ())
      ~regen:(fun () -> ())
      ~te:(fun () -> ())
      ~n_new_tunnels:0 ()
  in
  let report = Controller.with_notes report notes in
  Alcotest.(check int) "report carries notes" (List.length notes)
    (List.length report.Controller.notes)

(* ------------------------------------------------------------------ *)
(* Rung 0: warm-basis retention                                         *)
(* ------------------------------------------------------------------ *)

let te_fixture_problem ts demands =
  Te.make_problem ~ts ~demands ~probs:[| 0.02; 0.03; 0.01; 0.02; 0.01 |]
    ~beta:0.9 ()

let test_ladder_rung0_warm_basis () =
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let ladder = Resilience.create () in
  Alcotest.(check bool) "no basis initially" true
    (Resilience.last_basis ladder = None);
  (* A real basis from a real solve. *)
  let sol = Te.solve ~second_phase:false (te_fixture_problem ts demands) in
  let b =
    match sol.Te.basis with
    | Some b -> b
    | None -> Alcotest.fail "solved instance must surface its basis"
  in
  let seen_warm = ref None in
  let o1 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm () ->
        seen_warm := warm;
        (good_plan ts demands, Some b))
      ()
  in
  Alcotest.(check bool) "primary rung" true (o1.Resilience.rung = Resilience.Primary);
  Alcotest.(check bool) "first epoch starts cold" true (!seen_warm = None);
  Alcotest.(check bool) "basis retained after success" true
    (Resilience.last_basis ladder = Some b);
  (* The next epoch's primary receives the retained basis as rung 0. *)
  let o2 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(fun ~warm () ->
        seen_warm := warm;
        (good_plan ts demands, None))
      ()
  in
  Alcotest.(check bool) "second epoch warmed" true (!seen_warm = Some b);
  Alcotest.(check bool) "primary again" true (o2.Resilience.rung = Resilience.Primary);
  (* A primary returning no basis keeps the previous one... *)
  Alcotest.(check bool) "None return keeps basis" true
    (Resilience.last_basis ladder = Some b);
  (* ...and a failing epoch must not clobber it either. *)
  ignore
    (Resilience.plan_epoch ladder ~ts ~demands
       ~primary:(fun ~warm:_ () -> raise Prete_lp.Simplex.Timeout)
       ());
  Alcotest.(check bool) "fallback keeps basis" true
    (Resilience.last_basis ladder = Some b)

let test_ladder_deadline_regression () =
  (* End-to-end deadline pressure on a real TE primary: an already
     expired budget must degrade to a fallback rung (never raise) with a
     still-feasible plan, and a generous budget must recover to a clean
     warm-started primary. *)
  let _, ts = fixture () in
  let demands = [| 5.0; 5.0 |] in
  let p = te_fixture_problem ts demands in
  let primary ~deadline ~warm () =
    let sol = Te.solve ~second_phase:false ~deadline ?warm p in
    ( {
        Availability.p_alloc = sol.Te.alloc;
        p_ts = ts;
        p_admitted = None;
        p_degraded = sol.Te.degraded;
      },
      sol.Te.basis )
  in
  let ladder = Resilience.create () in
  (* Epoch 1: generous budget — clean primary, basis retained. *)
  let o1 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(primary ~deadline:(Prete_util.Clock.deadline_after 3600.0))
      ()
  in
  Alcotest.(check bool) "generous: primary rung" true
    (o1.Resilience.rung = Resilience.Primary);
  Alcotest.(check bool) "generous: not degraded" false (Resilience.degraded o1);
  Alcotest.(check bool) "generous: basis retained" true
    (Resilience.last_basis ladder <> None);
  (* Epoch 2: expired budget — the solve times out, the ladder serves the
     cached plan, and the retained warm basis survives untouched. *)
  let o2 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(primary ~deadline:(Prete_util.Clock.now () -. 1.0))
      ()
  in
  Alcotest.(check bool) "expired: fallback rung" true
    (o2.Resilience.rung = Resilience.Cached);
  Alcotest.(check bool) "expired: timeout cause" true
    (o2.Resilience.cause = Some Resilience.Solver_timeout);
  Alcotest.(check bool) "expired: still feasible" true
    (Resilience.plan_feasible ts o2.Resilience.plan);
  Alcotest.(check bool) "expired: degraded" true (Resilience.degraded o2);
  let retained = Resilience.last_basis ladder in
  Alcotest.(check bool) "expired: basis survives" true (retained <> None);
  (* Epoch 3: budget restored — the warm re-solve lands on the same phi
     as a cold solve (a warm start keeps the optimal objective). *)
  let o3 =
    Resilience.plan_epoch ladder ~ts ~demands
      ~primary:(primary ~deadline:(Prete_util.Clock.deadline_after 3600.0))
      ()
  in
  Alcotest.(check bool) "recovered: primary rung" true
    (o3.Resilience.rung = Resilience.Primary);
  let cold = Te.solve ~second_phase:false p in
  let warm = Te.solve ~second_phase:false ?warm:retained p in
  check_close 1e-9 "warm phi = cold phi" cold.Te.phi warm.Te.phi

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_ladder_plans_always_feasible =
  QCheck.Test.make ~name:"every ladder-emitted plan passes Simplex.feasible"
    ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 9100) in
      let topo, ts = fixture () in
      let dt = Detours.build ts in
      let demands =
        Array.init 2 (fun _ -> Prete_util.Rng.uniform rng 0.0 100.0)
      in
      let ladder = Resilience.create () in
      (* Sometimes warm the cache first. *)
      if Prete_util.Rng.bool rng then
        ignore
          (Resilience.plan_epoch ladder ~ts ~demands
             ~primary:(fun ~warm:_ () -> (good_plan ts demands, None))
             ());
      let primary ~warm:_ () =
        match Prete_util.Rng.int rng 5 with
        | 0 -> raise Prete_lp.Simplex.Timeout
        | 1 -> raise (Prete_lp.Simplex.Numerical "synthetic")
        | 2 -> raise (Te.Infeasible_problem "synthetic")
        | 3 -> (garbage_plan ts, None)
        | _ -> (good_plan ts demands, None)
      in
      let gap = Prete_util.Rng.int rng 4 = 0 in
      (* Sometimes arm the Detour rung on a random fiber (tabled or
         not — an untabled fiber must fall through to the ladder). *)
      let detour =
        if Prete_util.Rng.int rng 3 = 0 then
          Some
            ( dt,
              good_plan ts demands,
              Prete_util.Rng.int rng (Topology.num_fibers topo) )
        else None
      in
      let cached_before = Resilience.last_good ladder in
      let o =
        Resilience.plan_epoch ladder ~ts ~demands ?detour ~telemetry_gap:gap
          ~primary ()
      in
      (* A detour-rung plan is indexed by its own extended tunnel set;
         every other rung's by the base set. *)
      Resilience.plan_feasible o.Resilience.plan.Availability.p_ts
        o.Resilience.plan
      && (o.Resilience.rung <> Resilience.Detour
         || Resilience.last_good ladder == cached_before))

let prop_equal_split_feasible_at_any_scale =
  QCheck.Test.make ~name:"equal split feasible even at absurd demand"
    ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 9200) in
      let _, ts = fixture () in
      let demands =
        Array.init 2 (fun _ -> Prete_util.Rng.uniform rng 0.0 1e5)
      in
      Resilience.plan_feasible ts (Resilience.equal_split ts ~demands))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_resilience"
    [
      ( "anytime",
        [
          Alcotest.test_case "expired deadline raises Timeout" `Quick
            test_te_expired_deadline_raises_timeout;
          Alcotest.test_case "generous deadline not degraded" `Quick
            test_te_generous_deadline_not_degraded;
          Alcotest.test_case "MIP node limit is anytime" `Quick
            test_mip_node_limit_returns_incumbent_option;
        ] );
      ( "controller",
        [
          Alcotest.test_case "wall returns result" `Quick
            test_controller_wall_returns_result_and_duration;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotone;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "primary success" `Quick test_ladder_primary_success;
          Alcotest.test_case "falls back to cache" `Quick test_ladder_falls_back_to_cache;
          Alcotest.test_case "cold cache equal split" `Quick
            test_ladder_cold_cache_reaches_equal_split;
          Alcotest.test_case "rejects infeasible primary" `Quick
            test_ladder_rejects_infeasible_primary_plan;
          Alcotest.test_case "retry with backoff" `Quick test_ladder_retries_with_backoff;
          Alcotest.test_case "telemetry gap skips primary" `Quick
            test_ladder_telemetry_gap_skips_primary;
          Alcotest.test_case "notes match attempts" `Quick test_ladder_notes_match_attempts;
          Alcotest.test_case "rung-0 warm basis retention" `Quick
            test_ladder_rung0_warm_basis;
          Alcotest.test_case "deadline regression end to end" `Quick
            test_ladder_deadline_regression;
        ] );
      ( "properties",
        qsuite [ prop_ladder_plans_always_feasible; prop_equal_split_feasible_at_any_scale ]
      );
    ]
