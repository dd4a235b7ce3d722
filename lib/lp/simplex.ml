type basis_entry =
  | Bstructural of int
  | Brow_slack of int
  | Brow_surplus of int
  | Brow_artificial of int

type basis = {
  b_nv : int;
  b_m : int;
  b_entries : basis_entry array;
  b_upper : int array;
      (* original structural variables nonbasic at their upper bound —
         only the bounded LU engine produces/consumes these; the dense
         engine (no bound-flip machinery) stores [||]. *)
}

let basis_size b = b.b_m

type engine = Dense | Lu

let default_engine = ref Lu

let engine_name = function Dense -> "dense" | Lu -> "lu"

let engine_of_string = function
  | "dense" -> Some Dense
  | "lu" -> Some Lu
  | _ -> None

type solution = {
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
  degraded : bool;
  basis : basis;
  warm_used : bool;
  phase1_skipped : bool;
  repaired : bool;
  engine : engine;
  refactorizations : int;
  ftran_nnz : int;
  btran_nnz : int;
  ft_updates : int;
  bound_flips : int;
  lu_fill_nnz : int;
  presolve_rows : int;
  presolve_cols : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical of string

exception Timeout

let eps = 1e-9
let feas_eps = 1e-7

type col_kind = Structural of int | Slack of int | Surplus of int | Artificial of int

(* ---- Dense normalization -----------------------------------------------

   The dense engine solves a normalized problem: variables shifted to
   zero lower bound, finite upper bounds as extra Le rows, every row
   carrying an artificial so the identity column of row i is always
   [art0 + i].  A negative rhs is handled by scaling the row by -1 inside
   the matrix (recorded in [flipped]), NOT by rewriting the sense — so the
   column layout depends only on the senses and structurally identical
   models share it no matter how their rhs vectors differ.  That
   invariance is what lets a stored basis reinstall exactly across
   rhs-only changes (MIP bound fixings, Benders cut updates, delta
   re-rounding). *)

type norm_row = { coefs : (int * float) list; sense : Lp.sense; rhs : float; flipped : bool }

type prep = {
  p_nv : int;  (* structural variables *)
  p_nc : int;  (* model constraints (dual dimension) *)
  p_m : int;  (* rows incl. upper-bound rows *)
  p_n : int;  (* columns: structural | slack | surplus | artificial *)
  p_art0 : int;  (* first artificial column *)
  p_nslack : int;
  p_rows : norm_row array;
  p_lbs : float array;
  p_obj_const : float;
  p_sign : float;  (* Minimize -> 1.0, Maximize -> -1.0 *)
  p_cost : float array;  (* phase-2 cost over all n columns *)
}

let prepare model =
  let bounds = Lp.Internal.bounds model in
  let constrs = Lp.Internal.constraints model in
  let dir, obj_coefs = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = Array.length constrs in
  Array.iter
    (fun (lb, _) ->
      if lb = neg_infinity then
        invalid_arg "Simplex.solve: free variables (lb = -inf) unsupported")
    bounds;
  (* Shift x = lb + x'; collect the objective constant and adjusted rhs. *)
  let lbs = Array.map fst bounds in
  let obj_const = ref 0.0 in
  Array.iteri (fun j c -> obj_const := !obj_const +. (c *. lbs.(j))) obj_coefs;
  let shifted_rhs c =
    List.fold_left (fun acc (v, coef) -> acc -. (coef *. lbs.(v))) c.Lp.Internal.rhs c.Lp.Internal.terms
  in
  let rows0 =
    Array.to_list
      (Array.map
         (fun c ->
           { coefs = c.Lp.Internal.terms; sense = c.Lp.Internal.sense;
             rhs = shifted_rhs c; flipped = false })
         constrs)
  in
  let ub_rows =
    let acc = ref [] in
    Array.iteri
      (fun j (lb, ub) ->
        if ub < infinity then
          acc := { coefs = [ (j, 1.0) ]; sense = Lp.Le; rhs = ub -. lb; flipped = false } :: !acc)
      bounds;
    List.rev !acc
  in
  let row_arr =
    Array.of_list
      (List.map (fun r -> { r with flipped = r.rhs < 0.0 }) (rows0 @ ub_rows))
  in
  let m = Array.length row_arr in
  let n_slack =
    Array.fold_left (fun a r -> if r.sense = Lp.Le then a + 1 else a) 0 row_arr
  in
  let n_surplus =
    Array.fold_left (fun a r -> if r.sense = Lp.Ge then a + 1 else a) 0 row_arr
  in
  let art0 = nv + n_slack + n_surplus in
  let n = art0 + m in
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost = Array.make n 0.0 in
  for j = 0 to nv - 1 do
    cost.(j) <- sign *. obj_coefs.(j)
  done;
  { p_nv = nv; p_nc = nc; p_m = m; p_n = n; p_art0 = art0; p_nslack = n_slack;
    p_rows = row_arr; p_lbs = lbs; p_obj_const = !obj_const; p_sign = sign;
    p_cost = cost }

(* Warm-guided Phase-1 pricing preference: previously basic structural
   columns. *)
let warm_prefer p wb =
  let pref = Array.make p.p_n false in
  Array.iter
    (function Bstructural j when j < p.p_nv -> pref.(j) <- true | _ -> ())
    wb.b_entries;
  pref

(* ---- Dense tableau engine ----------------------------------------------

   The original engine, retained as the differential-testing oracle behind
   [?engine:Dense].  [rows] is m × n, [rhs] is m (kept >= 0 up to
   round-off), [obj] holds reduced costs and [obj_val] the negated current
   objective contribution; [basis.(i)] is the column basic in row i. *)
type tableau = {
  m : int;
  n : int;
  rows : float array array;
  rhs : float array;
  obj : float array;
  mutable obj_val : float;
  basis : int array;
  kinds : col_kind array;
}

let pivot t ~row ~col =
  let piv = t.rows.(row).(col) in
  let r = t.rows.(row) in
  let inv = 1.0 /. piv in
  for j = 0 to t.n - 1 do
    r.(j) <- r.(j) *. inv
  done;
  t.rhs.(row) <- t.rhs.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.rows.(i).(col) in
      if Float.abs f > 0.0 then begin
        let ri = t.rows.(i) in
        for j = 0 to t.n - 1 do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done;
        t.rhs.(i) <- t.rhs.(i) -. (f *. t.rhs.(row));
        (* Clamp round-off negatives so the ratio test stays sane. *)
        if t.rhs.(i) < 0.0 && t.rhs.(i) > -.eps then t.rhs.(i) <- 0.0
      end
    end
  done;
  let f = t.obj.(col) in
  if Float.abs f > 0.0 then begin
    for j = 0 to t.n - 1 do
      t.obj.(j) <- t.obj.(j) -. (f *. r.(j))
    done;
    t.obj_val <- t.obj_val -. (f *. t.rhs.(row))
  end;
  t.basis.(row) <- col

(* Ratio test: leaving row for entering column [col]; Bland tie-break on
   the basic variable index. *)
let leaving_row t col =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let a = t.rows.(i).(col) in
    if a > eps then begin
      let ratio = t.rhs.(i) /. a in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && (!best = -1 || t.basis.(i) < t.basis.(!best)))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

(* One optimization phase.  [banned c] excludes columns from entering.
   [prefer] (when given) is scanned first: among preferred columns with a
   negative reduced cost the most negative enters — this is the
   warm-repair pricing that steers Phase 1 back toward a previous basis.
   Returns [`Optimal], [`Unbounded] or [`Budget] (pivot limit or deadline
   expired — the current basis is the best incumbent this phase has),
   counting pivots in [iters].  The deadline is polled every 64 pivots to
   keep the clock read off the pivot hot path. *)
let optimize t ~banned ?prefer ~max_iters ?deadline iters =
  let bland_threshold = 20 * (t.m + t.n) in
  let out_of_budget () =
    !iters > max_iters
    || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
  in
  let rec loop () =
    if out_of_budget () then `Budget
    else
    let use_bland = !iters > bland_threshold in
    let entering = ref (-1) and best = ref (-.eps) in
    (* Warm-guided pricing: preferred columns first (Dantzig restricted to
       the preference set); Bland mode ignores it to keep the
       anti-cycling guarantee intact. *)
    (match prefer with
    | Some pref when not use_bland ->
      for j = 0 to t.n - 1 do
        if pref.(j) && (not (banned j)) && t.obj.(j) < !best then begin
          best := t.obj.(j);
          entering := j
        end
      done
    | _ -> ());
    if !entering = -1 then begin
      best := -.eps;
      try
        for j = 0 to t.n - 1 do
          if not (banned j) then
            if use_bland then begin
              if t.obj.(j) < -.eps then begin
                entering := j;
                raise Exit
              end
            end
            else if t.obj.(j) < !best then begin
              best := t.obj.(j);
              entering := j
            end
        done
      with Exit -> ()
    end;
    if !entering = -1 then `Optimal
    else begin
      let col = !entering in
      let row = leaving_row t col in
      if row = -1 then `Unbounded
      else begin
        incr iters;
        pivot t ~row ~col;
        loop ()
      end
    end
  in
  loop ()

(* Recompute reduced costs for a cost vector [c] (indexed by column) given
   the current basis; the tableau body already encodes B^-1 A. *)
let install_costs t c =
  Array.blit c 0 t.obj 0 t.n;
  t.obj_val <- 0.0;
  for i = 0 to t.m - 1 do
    let cb = c.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let r = t.rows.(i) in
      for j = 0 to t.n - 1 do
        t.obj.(j) <- t.obj.(j) -. (cb *. r.(j))
      done;
      t.obj_val <- t.obj_val -. (cb *. t.rhs.(i))
    end
  done

let make_tableau p =
  let { p_nv = nv; p_m = m; p_n = n; p_art0 = art0; p_nslack = n_slack; _ } = p in
  let kinds = Array.make n (Structural 0) in
  for j = 0 to nv - 1 do
    kinds.(j) <- Structural j
  done;
  let t =
    { m; n;
      rows = Array.init m (fun _ -> Array.make n 0.0);
      rhs = Array.make m 0.0;
      obj = Array.make n 0.0;
      obj_val = 0.0;
      basis = Array.make m (-1);
      kinds }
  in
  let next_slack = ref nv in
  let next_surplus = ref (nv + n_slack) in
  Array.iteri
    (fun i r ->
      let s = if r.flipped then -1.0 else 1.0 in
      List.iter (fun (v, c) -> t.rows.(i).(v) <- t.rows.(i).(v) +. (s *. c)) r.coefs;
      t.rhs.(i) <- s *. r.rhs;
      let ja = art0 + i in
      kinds.(ja) <- Artificial i;
      t.rows.(i).(ja) <- 1.0;
      (* Crash basis: the identity column with coefficient +1 after
         scaling — slack (Le, unflipped), surplus (Ge, flipped), else
         the artificial. *)
      (match r.sense with
      | Lp.Le ->
        let j = !next_slack in
        incr next_slack;
        kinds.(j) <- Slack i;
        t.rows.(i).(j) <- s;
        t.basis.(i) <- (if r.flipped then ja else j)
      | Lp.Ge ->
        let js = !next_surplus in
        incr next_surplus;
        kinds.(js) <- Surplus i;
        t.rows.(i).(js) <- -.s;
        t.basis.(i) <- (if r.flipped then js else ja)
      | Lp.Eq -> t.basis.(i) <- ja))
    p.p_rows;
  t

let solve_dense p ~max_iters ~deadline ~warm =
  let { p_nv = nv; p_nc = nc; p_m = m; p_n = n; p_art0 = art0;
        p_rows = row_arr; p_lbs = lbs; p_obj_const = obj_const;
        p_sign = sign; p_cost = phase2_cost; _ } = p in
  let is_artificial j = j >= art0 in
  let iters = ref 0 in
  (* ---- Warm start ----
     A compatible basis (same structural dimension) is reused two ways:

     - Exact reinstall (same row count): Gauss-Jordan the stored basic
       columns back into the basis, ignoring rhs signs along the way, then
       check primal feasibility of the result.  Feasible -> Phase 1 is
       skipped entirely.
     - Repair (reinstall infeasible, or the row structure changed): run
       Phase 1 from the crash start with warm-guided pricing — preferred
       entering columns are the previously-basic structural variables, so
       the work concentrates on the rows the model delta actually
       violated and the search lands near the old vertex. *)
  let try_exact_install wb =
    if wb.b_m <> m then None
    else begin
      let t = make_tableau p in
      let slack_col = Array.make m (-1)
      and surplus_col = Array.make m (-1)
      and art_col = Array.make m (-1) in
      Array.iteri
        (fun j k ->
          match k with
          | Slack i -> slack_col.(i) <- j
          | Surplus i -> surplus_col.(i) <- j
          | Artificial i -> art_col.(i) <- j
          | Structural _ -> ())
        t.kinds;
      let target i =
        match wb.b_entries.(i) with
        | Bstructural j -> if j < nv then j else -1
        | Brow_slack r -> if r < m then slack_col.(r) else -1
        | Brow_surplus r -> if r < m then surplus_col.(r) else -1
        | Brow_artificial r -> if r < m then art_col.(r) else -1
      in
      (* Install the stored basic-column SET, not the stored row pairing:
         any row arrangement of a nonsingular column set is a valid basis,
         and freeing the pairing turns the install into plain Gaussian
         elimination with partial pivoting over unclaimed rows — which
         succeeds whenever the set is numerically nonsingular, where a
         fixed row-per-column sweep can deadlock on permutation cycles
         through the crash basis (and then silently leave a {e wrong}
         basis behind).  These eliminations are basis factorization, not
         priced simplex iterations, and are not counted in [iters]. *)
      let targets = Array.init m target in
      let in_targets = Array.make n false in
      Array.iter (fun c -> if c >= 0 then in_targets.(c) <- true) targets;
      let claimed = Array.make m false in
      let installed = Array.make n false in
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        if in_targets.(b) && not installed.(b) then begin
          claimed.(i) <- true;
          installed.(b) <- true
        end
      done;
      let ok = ref true in
      Array.iter
        (fun c ->
          if !ok && c >= 0 && not installed.(c) then begin
            let r = ref (-1) and best = ref 1e-6 in
            for i = 0 to m - 1 do
              if not claimed.(i) then begin
                let a = Float.abs t.rows.(i).(c) in
                if a > !best then begin
                  best := a;
                  r := i
                end
              end
            done;
            if !r = -1 then ok := false
            else begin
              pivot t ~row:!r ~col:c;
              claimed.(!r) <- true;
              installed.(c) <- true
            end
          end)
        targets;
      if not !ok then None
      else begin
      let rhs_ok = ref true and art_ok = ref true in
      for i = 0 to m - 1 do
        if t.rhs.(i) < -.feas_eps then rhs_ok := false
        else begin
          match t.kinds.(t.basis.(i)) with
          | Artificial _ when t.rhs.(i) > feas_eps -> art_ok := false
          | _ -> ()
        end
      done;
      if not !art_ok then None
      else begin
        for i = 0 to m - 1 do
          if t.rhs.(i) < 0.0 && t.rhs.(i) > -.feas_eps then t.rhs.(i) <- 0.0
        done;
        Some (t, !rhs_ok)
      end
      end
    end
  in
  let arts_zero t =
    let ok = ref true in
    for i = 0 to m - 1 do
      match t.kinds.(t.basis.(i)) with
      | Artificial _ when t.rhs.(i) > feas_eps -> ok := false
      | _ -> ()
    done;
    !ok
  in
  (* Dual-simplex repair.  A reinstalled optimal basis keeps its reduced
     costs >= 0 (the objective row did not change), so when only the rhs
     moved the basis is still dual feasible and a short dual loop —
     leaving row by most-negative rhs, entering column by the dual ratio
     test — walks back to primal feasibility in a few pivots instead of a
     full Phase 1.  Returns false on stall, budget expiry, a dual-
     infeasible install, or any numerical doubt; the caller then falls
     back to guided Phase 1, so correctness never rests on this loop. *)
  let dual_repair t =
    install_costs t phase2_cost;
    let dual_ok = ref true in
    for j = 0 to n - 1 do
      if (not (is_artificial j)) && t.obj.(j) < -.feas_eps then dual_ok := false
    done;
    if not !dual_ok then false
    else begin
      let stall_cap = 10 * (m + n) in
      let steps = ref 0 in
      let result = ref `Run in
      while !result = `Run do
        if
          !iters > max_iters
          || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
          || !steps > stall_cap
        then result := `Fail
        else begin
          let row = ref (-1) and worst = ref (-.feas_eps) in
          for i = 0 to m - 1 do
            if t.rhs.(i) < !worst then begin
              worst := t.rhs.(i);
              row := i
            end
          done;
          if !row = -1 then result := `Done
          else begin
            let r = !row in
            let col = ref (-1) and best = ref infinity in
            for j = 0 to n - 1 do
              if not (is_artificial j) then begin
                let a = t.rows.(r).(j) in
                if a < -.eps then begin
                  let ratio = t.obj.(j) /. -.a in
                  if
                    ratio < !best -. eps
                    || (ratio < !best +. eps && (!col = -1 || j < !col))
                  then begin
                    best := ratio;
                    col := j
                  end
                end
              end
            done;
            (* No eligible column: the row certifies infeasibility — but
               let Phase 1 make that call with its own tolerances. *)
            if !col = -1 then result := `Fail
            else begin
              incr steps;
              incr iters;
              pivot t ~row:r ~col:!col
            end
          end
        end
      done;
      !result = `Done && arts_zero t
    end
  in
  let t, warm_used, phase1_skipped, repaired, prefer =
    match warm with
    | Some wb when wb.b_nv = nv -> (
      match try_exact_install wb with
      | Some (t, true) -> (t, true, true, false, None)
      | Some (t, false) when dual_repair t -> (t, true, true, true, None)
      | Some (_, false) | None ->
        (make_tableau p, true, false, true, Some (warm_prefer p wb)))
    | _ -> (make_tableau p, false, false, false, None)
  in
  let kinds = t.kinds in
  (* ---- Phase 1 (skipped when the warm basis reinstalled feasibly) ---- *)
  let feasible_start =
    if phase1_skipped then true
    else begin
      let phase1_cost = Array.make n 0.0 in
      Array.iteri
        (fun j k -> match k with Artificial _ -> phase1_cost.(j) <- 1.0 | _ -> ())
        kinds;
      install_costs t phase1_cost;
      (* Artificials never need to re-enter: they start basic wherever
         needed and are only driven out. *)
      (match optimize t ~banned:is_artificial ?prefer ~max_iters ?deadline iters with
      | `Unbounded -> raise (Numerical "Simplex: phase 1 unbounded (internal error)")
      | `Budget -> raise Timeout (* no feasible point yet: nothing to return *)
      | `Optimal -> ());
      (* obj_val tracks -(current phase-1 objective). *)
      -.t.obj_val <= feas_eps
    end
  in
  if not feasible_start then Infeasible
  else begin
    (* Drive remaining basic artificials out of the basis. *)
    for i = 0 to m - 1 do
      if is_artificial t.basis.(i) then begin
        let found = ref (-1) in
        (try
           for j = 0 to n - 1 do
             if (not (is_artificial j)) && Float.abs t.rows.(i).(j) > 1e-7 then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          incr iters;
          pivot t ~row:i ~col:!found
        end
        (* else: redundant row; the artificial stays basic at value 0 and,
           being banned from entering elsewhere, is harmless. *)
      end
    done;
    (* ---- Phase 2 ---- *)
    install_costs t phase2_cost;
    let extract ~degraded =
      let shifted = Array.make nv 0.0 in
      for i = 0 to m - 1 do
        match kinds.(t.basis.(i)) with
        | Structural j -> shifted.(j) <- t.rhs.(i)
        | Slack _ | Surplus _ | Artificial _ -> ()
      done;
      let values = Array.init nv (fun j -> lbs.(j) +. shifted.(j)) in
      let min_obj = -.t.obj_val in
      let objective = (sign *. min_obj) +. obj_const in
      (* Duals: the artificial of row i is the identity column of the
         (possibly sign-scaled) tableau row, so its reduced cost is -y_i
         of the scaled system; undo the scaling and the direction sign to
         obtain shadow prices of the original constraints. *)
      let duals =
        Array.init nc (fun i ->
            let raw = -.t.obj.(art0 + i) in
            let raw = if row_arr.(i).flipped then -.raw else raw in
            sign *. raw)
      in
      let b_entries =
        Array.map
          (fun bcol ->
            match kinds.(bcol) with
            | Structural j -> Bstructural j
            | Slack i -> Brow_slack i
            | Surplus i -> Brow_surplus i
            | Artificial i -> Brow_artificial i)
          t.basis
      in
      Optimal
        {
          objective;
          values;
          duals;
          iterations = !iters;
          degraded;
          basis = { b_nv = nv; b_m = m; b_entries; b_upper = [||] };
          warm_used;
          phase1_skipped;
          repaired;
          engine = Dense;
          refactorizations = 0;
          ftran_nnz = 0;
          btran_nnz = 0;
          ft_updates = 0;
          bound_flips = 0;
          lu_fill_nnz = 0;
          presolve_rows = 0;
          presolve_cols = 0;
        }
    in
    match optimize t ~banned:is_artificial ~max_iters ?deadline iters with
    | `Unbounded -> Unbounded
    | `Optimal -> extract ~degraded:false
    | `Budget ->
      (* Phase 2 maintains primal feasibility: the interrupted vertex is
         the best incumbent — return it flagged instead of raising. *)
      extract ~degraded:true
  end

(* ---- Bounded-variable LU engine ----------------------------------------

   The WAN-scale production path.  Three changes over the dense
   tableau:

   - The model first goes through {!Presolve}: empty/singleton/duplicate
     rows and empty/dominated columns are eliminated and the survivors
     equilibrated; the engine solves the reduced problem and maps the
     result back with [Presolve.postsolve].  On TE coverage LPs the
     duplicate-row collapse alone removes the bulk of the rows.
   - Columns carry ranges [0 <= x' <= u] directly (nonbasic-at-upper
     status, bound flips in the ratio test), so finite upper bounds stop
     costing explicit rows: presolve turns singleton capacity rows into
     bounds and this engine prices them for free.
   - The basis inverse is a sparse LU factorization ({!Sparse.Lu}) with
     Markowitz-style pivoting, Forrest–Tomlin updates on pivots, and
     periodic refactorization on fill-in/stability triggers — FTRAN and
     BTRAN stay O(LU nonzeros) instead of a tableau rewrite per pivot.

   The warm-start ladder mirrors the dense engine's (exact reinstall =
   one LU factorize -> bounded dual repair -> guided Phase 1), with the
   dual repair extended to above-upper violations so MIP bound fixings
   (which push basic variables over a tightened range) repair in a few
   dual pivots.  Stored bases carry the at-upper set ([b_upper]) keyed by
   original variable ids; [b_m] is the {e reduced} row count, so
   cross-engine transfers fail the shape check and degrade to guided
   Phase 1 — the structural ids still steer the pricing. *)
module Blu = struct
  let at_lower = 0
  and at_upper = 1
  and basic = 2

  (* Column j of A dotted with y.  It lives here rather than in {!Sparse}
     so that it inlines into the pricing loops and its float result stays
     unboxed there. *)
  let[@inline] col_dot (a : Sparse.t) j y =
    let acc = ref 0.0 in
    for k = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
      acc := !acc +. (a.Sparse.values.(k) *. y.(a.Sparse.rowidx.(k)))
    done;
    !acc

  type state = {
    m : int;  (* reduced rows *)
    n : int;  (* columns: structural | slack | surplus | artificial *)
    nv : int;  (* reduced structural count *)
    art0 : int;
    a : Sparse.t;
    at : Sparse.t;
    b : float array;  (* shifted scaled rhs (>= 0 after flips) *)
    flipped : bool array;
    kinds : col_kind array;
    crash : int array;
    basis : int array;
    vstat : int array;
    ub : float array;  (* per-column range u = r_ub - r_lb; infinity for
                          rangeless columns and all logicals *)
    xb : float array;
    cost : float array;  (* phase-2 min-form scaled cost *)
    f : Sparse.Lu.t;  (* refactorized in place *)
    mutable base_nnz : int;  (* factor nnz right after the last refactor *)
    mutable pp_cursor : int;
    w : float array;
    y : float array;
    rho : float array;
    d : float array;
    mutable c_factor : int;
    mutable c_ft : int;
    mutable c_flips : int;
    mutable c_ftran : int;
    mutable c_btran : int;
  }

  let ftran st x =
    Sparse.Lu.ftran st.f x;
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      if x.(i) <> 0.0 then incr nz
    done;
    st.c_ftran <- st.c_ftran + !nz

  let btran st y =
    Sparse.Lu.btran st.f y;
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      if y.(i) <> 0.0 then incr nz
    done;
    st.c_btran <- st.c_btran + !nz

  (* Clamp round-off violations of row i's basic range, mirroring the
     dense engine's rhs clamps. *)
  let clamp_row st i =
    if st.xb.(i) < 0.0 && st.xb.(i) > -.eps then st.xb.(i) <- 0.0
    else begin
      let ubi = st.ub.(st.basis.(i)) in
      if ubi < infinity && st.xb.(i) > ubi && st.xb.(i) < ubi +. eps then
        st.xb.(i) <- ubi
    end

  (* Resynchronize x_B = B⁻¹(b - Σ_{at-upper j} u_j A_j). *)
  let compute_xb st =
    Array.blit st.b 0 st.xb 0 st.m;
    let a = st.a in
    for j = 0 to st.n - 1 do
      if st.vstat.(j) = at_upper then begin
        let uj = st.ub.(j) in
        if uj > 0.0 && uj < infinity then
          for k = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
            let i = a.Sparse.rowidx.(k) in
            st.xb.(i) <- st.xb.(i) -. (uj *. a.Sparse.values.(k))
          done
      end
    done;
    ftran st st.xb;
    for i = 0 to st.m - 1 do
      clamp_row st i
    done

  (* A refactorization found the basis singular; [solve] restarts a warm
     solve cold once and otherwise reports it as {!Numerical}. *)
  exception Singular

  (* Refactorize the current basis from scratch; also resyncs x_B. *)
  let refactor st =
    st.c_factor <- st.c_factor + 1;
    let basis_out = Array.make st.m (-1) in
    let dropped =
      Sparse.Lu.refactorize st.f st.a ~targets:st.basis ~crash:st.crash ~basis_out
    in
    if dropped <> [] then raise Singular;
    st.base_nnz <- Sparse.Lu.nnz st.f;
    Array.blit basis_out 0 st.basis 0 st.m;
    compute_xb st

  (* Refactorization policy: absorbed-update count or fill-in growth
     since the last factorize, with the factor's own nnz as the
     baseline. *)
  let maybe_refactor st =
    if
      Sparse.Lu.updates st.f >= 64
      || Sparse.Lu.nnz st.f - st.base_nnz > Stdlib.max 4096 (16 * st.m)
    then refactor st

  let make_state (red : Presolve.t) =
    let nv = red.Presolve.r_nv and m = red.Presolve.r_nc in
    let r_ptr = red.Presolve.r_ptr
    and r_col = red.Presolve.r_col
    and r_val = red.Presolve.r_val in
    (* Shift x = r_lb + x' and flip negative-rhs rows in-matrix, exactly
       like [prepare] — the column layout depends only on the senses. *)
    let rhs = Array.make m 0.0 in
    for i = 0 to m - 1 do
      let acc = ref red.Presolve.r_rhs.(i) in
      for k = r_ptr.(i) to r_ptr.(i + 1) - 1 do
        acc := !acc -. (r_val.(k) *. red.Presolve.r_lb.(r_col.(k)))
      done;
      rhs.(i) <- !acc
    done;
    let flipped = Array.map (fun r -> r < 0.0) rhs in
    let nslack = ref 0 and nsurplus = ref 0 in
    Array.iter
      (function Lp.Le -> incr nslack | Lp.Ge -> incr nsurplus | Lp.Eq -> ())
      red.Presolve.r_sense;
    let art0 = nv + !nslack + !nsurplus in
    let n = art0 + m in
    let kinds = Array.make n (Structural 0) in
    for j = 0 to nv - 1 do
      kinds.(j) <- Structural j
    done;
    let crash = Array.make m (-1) in
    let b = Array.make m 0.0 in
    let next_slack = ref nv in
    let next_surplus = ref (nv + !nslack) in
    (* Rows of [ A | slack/surplus | artificial ]: structural entries,
       then the row's logical, then its artificial. *)
    let ptr = Array.make (m + 1) 0 in
    let cap = r_ptr.(m) + (2 * m) in
    let idx = Array.make cap 0 and vals = Array.make cap 0.0 in
    let w = ref 0 in
    for i = 0 to m - 1 do
      let s = if flipped.(i) then -1.0 else 1.0 in
      for k = r_ptr.(i) to r_ptr.(i + 1) - 1 do
        let v = s *. r_val.(k) in
        if v <> 0.0 then begin
          idx.(!w) <- r_col.(k);
          vals.(!w) <- v;
          incr w
        end
      done;
      b.(i) <- s *. rhs.(i);
      let ja = art0 + i in
      kinds.(ja) <- Artificial i;
      (match red.Presolve.r_sense.(i) with
      | Lp.Le ->
        let j = !next_slack in
        incr next_slack;
        kinds.(j) <- Slack i;
        idx.(!w) <- j;
        vals.(!w) <- s;
        incr w;
        crash.(i) <- (if flipped.(i) then ja else j)
      | Lp.Ge ->
        let js = !next_surplus in
        incr next_surplus;
        kinds.(js) <- Surplus i;
        idx.(!w) <- js;
        vals.(!w) <- -.s;
        incr w;
        crash.(i) <- (if flipped.(i) then js else ja)
      | Lp.Eq -> crash.(i) <- ja);
      idx.(!w) <- ja;
      vals.(!w) <- 1.0;
      incr w;
      ptr.(i + 1) <- !w
    done;
    let a = Sparse.of_rows ~rows:m ~cols:n ptr idx vals in
    let at = Sparse.transpose a in
    let ub = Array.make n infinity in
    for j = 0 to nv - 1 do
      ub.(j) <- red.Presolve.r_ub.(j) -. red.Presolve.r_lb.(j)
    done;
    let cost = Array.make n 0.0 in
    for j = 0 to nv - 1 do
      cost.(j) <- red.Presolve.r_cost.(j)
    done;
    let vstat = Array.make n at_lower in
    let basis_out = Array.make m (-1) in
    let f, _dropped = Sparse.Lu.factorize a ~targets:crash ~crash ~basis_out in
    let st =
      { m; n; nv; art0; a; at; b; flipped; kinds; crash;
        basis = basis_out; vstat; ub;
        xb = Array.make m 0.0; cost;
        f; base_nnz = Sparse.Lu.nnz f; pp_cursor = 0;
        w = Array.make m 0.0; y = Array.make m 0.0; rho = Array.make m 0.0;
        d = Array.make n 0.0;
        c_factor = 1; c_ft = 0; c_flips = 0; c_ftran = 0; c_btran = 0 }
    in
    Array.iter (fun j -> vstat.(j) <- basic) st.basis;
    compute_xb st;
    st

  let compute_y st cost =
    for i = 0 to st.m - 1 do
      st.y.(i) <- cost.(st.basis.(i))
    done;
    btran st st.y

  let compute_d st cost =
    Array.blit cost 0 st.d 0 st.n;
    let at = st.at in
    for i = 0 to st.m - 1 do
      let yi = st.y.(i) in
      if yi <> 0.0 then
        for k = at.Sparse.colptr.(i) to at.Sparse.colptr.(i + 1) - 1 do
          let j = at.Sparse.rowidx.(k) in
          st.d.(j) <- st.d.(j) -. (at.Sparse.values.(k) *. yi)
        done
    done

  let arts_zero st =
    let ok = ref true in
    for i = 0 to st.m - 1 do
      match st.kinds.(st.basis.(i)) with
      | Artificial _ when st.xb.(i) > feas_eps -> ok := false
      | _ -> ()
    done;
    !ok

  let phase1_sum st =
    let s = ref 0.0 in
    for i = 0 to st.m - 1 do
      match st.kinds.(st.basis.(i)) with
      | Artificial _ -> s := !s +. Float.max 0.0 st.xb.(i)
      | _ -> ()
    done;
    !s

  (* Bound flip: the entering column hits its own opposite bound before
     any basic variable blocks — no basis change, no factor update, just
     an x_B shift by the full range. *)
  let apply_flip st ~q ~sigma =
    let uq = st.ub.(q) in
    for i = 0 to st.m - 1 do
      if st.w.(i) <> 0.0 then begin
        st.xb.(i) <- st.xb.(i) -. (sigma *. uq *. st.w.(i));
        clamp_row st i
      end
    done;
    st.vstat.(q) <- (if st.vstat.(q) = at_lower then at_upper else at_lower);
    st.c_flips <- st.c_flips + 1

  (* Basis change: entering q (FTRAN'd into st.w, whose spike the factor
     cached), leaving row [row] whose variable exits to its lower
     (default) or upper bound. *)
  let do_pivot st ~row ~q ~sigma ~t ~to_upper =
    let leave = st.basis.(row) in
    for i = 0 to st.m - 1 do
      if st.w.(i) <> 0.0 then begin
        st.xb.(i) <- st.xb.(i) -. (sigma *. t *. st.w.(i));
        clamp_row st i
      end
    done;
    let xq = if sigma > 0.0 then t else st.ub.(q) -. t in
    st.xb.(row) <- Float.max 0.0 xq;
    st.vstat.(leave) <- (if to_upper then at_upper else at_lower);
    st.vstat.(q) <- basic;
    st.basis.(row) <- q;
    if Sparse.Lu.update st.f ~leaving_row:row then begin
      st.c_ft <- st.c_ft + 1;
      maybe_refactor st
    end
    else
      (* Update refused on stability grounds: rebuild the factor from
         the (already updated) basis — the half-mutated factor is
         discarded wholesale. *)
      refactor st

  (* Three-limit ratio test for entering column q moving in direction
     [sigma] (+1 from lower, -1 from upper): a basic variable drops to
     zero, a basic variable hits its (finite) range, or the entering
     variable traverses its own range — the last is a bound flip.  The
     default is a Harris-style two-pass rule extended to range limits;
     Bland mode uses the exact minimum-ratio rule with
     lowest-basic-index tie-breaks (flip preferred on ties — it strictly
     moves x_q across a positive range, so it cannot cycle). *)
  let ratio_test st ~q ~sigma ~use_bland =
    let uq = st.ub.(q) in
    if use_bland then begin
      let best = ref (-1)
      and best_ratio = ref uq
      and best_up = ref false in
      for i = 0 to st.m - 1 do
        let wi = sigma *. st.w.(i) in
        if wi > eps then begin
          let r = Float.max 0.0 st.xb.(i) /. wi in
          if
            r < !best_ratio -. eps
            || (r < !best_ratio +. eps && !best >= 0
                && st.basis.(i) < st.basis.(!best))
          then begin
            best := i;
            best_ratio := r;
            best_up := false
          end
        end
        else if wi < -.eps then begin
          let ubi = st.ub.(st.basis.(i)) in
          if ubi < infinity then begin
            let r = Float.max 0.0 (ubi -. st.xb.(i)) /. -.wi in
            if
              r < !best_ratio -. eps
              || (r < !best_ratio +. eps && !best >= 0
                  && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_ratio := r;
              best_up := true
            end
          end
        end
      done;
      if !best = -1 then (if uq = infinity then `Unbounded else `Flip)
      else `Pivot (!best, !best_ratio, !best_up)
    end
    else begin
      (* Pass 1: largest step keeping every basic value within
         [-feas_eps, ub + feas_eps]; the entering range is a hard cap. *)
      let tmax = ref uq in
      for i = 0 to st.m - 1 do
        let wi = sigma *. st.w.(i) in
        if wi > eps then begin
          let t = (Float.max 0.0 st.xb.(i) +. feas_eps) /. wi in
          if t < !tmax then tmax := t
        end
        else if wi < -.eps then begin
          let ubi = st.ub.(st.basis.(i)) in
          if ubi < infinity then begin
            let t = (Float.max 0.0 (ubi -. st.xb.(i)) +. feas_eps) /. -.wi in
            if t < !tmax then tmax := t
          end
        end
      done;
      if !tmax = infinity then `Unbounded
      else begin
        (* Pass 2: numerically largest pivot among rows whose exact
           ratio fits under the relaxed bound. *)
        let best = ref (-1)
        and best_piv = ref 0.0
        and best_ratio = ref 0.0
        and best_up = ref false in
        for i = 0 to st.m - 1 do
          let wi = sigma *. st.w.(i) in
          (* Rows that cannot block get an infinite ratio, which never
             fits under the finite [tmax]. *)
          let exact =
            if wi > eps then Float.max 0.0 st.xb.(i) /. wi
            else if wi < -.eps then begin
              let ubi = st.ub.(st.basis.(i)) in
              if ubi < infinity then Float.max 0.0 (ubi -. st.xb.(i)) /. -.wi
              else infinity
            end
            else infinity
          in
          if exact <= !tmax then begin
            let a = Float.abs st.w.(i) in
            if
              a > !best_piv
              || (a = !best_piv && !best >= 0
                  && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_piv := a;
              best_ratio := exact;
              best_up := wi < 0.0
            end
          end
        done;
        if !best = -1 then (if uq < infinity then `Flip else `Unbounded)
        else if uq <= !best_ratio then `Flip
        else `Pivot (!best, !best_ratio, !best_up)
      end
    end

  (* Zero-range columns can never move: exclude them outright. *)
  let[@inline] eligible st banned j =
    (not (banned j)) && st.vstat.(j) <> basic && st.ub.(j) > 0.0

  (* Signed attractiveness: at-lower wants d < 0, at-upper wants d > 0. *)
  let[@inline] attract st j dj =
    if st.vstat.(j) = at_lower then (if dj < -.eps then -.dj else 0.0)
    else if dj > eps then dj
    else 0.0

  (* Most attractive eligible column by the full reduced costs in [st.d],
     among the [pref] columns when given; -1 when there is none. *)
  let best_priced st ~banned pref =
    let best = ref 0.0 and entering = ref (-1) in
    for j = 0 to st.n - 1 do
      if (match pref with Some p -> p.(j) | None -> true) && eligible st banned j
      then begin
        let aj = attract st j st.d.(j) in
        if aj > !best then begin
          best := aj;
          entering := j
        end
      end
    done;
    !entering

  (* One optimization phase with signed attractiveness (at-lower wants
     d < 0, at-upper wants d > 0) and bound flips counted as iterations.
     Entering columns: Bland mode takes the first attractive column;
     guided Phase 1 takes the most attractive preferred column, else the
     most attractive of all; otherwise partial pricing prices one cyclic
     segment of columns at a time and takes that segment's best, moving
     on only when the segment has none. *)
  let optimize st ~cost ~banned ?prefer ~max_iters ~deadline iters =
    let bland_threshold = 20 * (st.m + st.n) in
    let out_of_budget () =
      !iters > max_iters
      || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
    in
    let seg = Stdlib.max 64 (st.n / 8) in
    let rec loop () =
      if out_of_budget () then `Budget
      else begin
        let use_bland = !iters > bland_threshold in
        compute_y st cost;
        let need_full = use_bland || prefer <> None in
        if need_full then compute_d st cost;
        let entering = ref (-1) in
        (if use_bland then begin
           let j = ref 0 in
           while !entering = -1 && !j < st.n do
             if eligible st banned !j && attract st !j st.d.(!j) > 0.0 then
               entering := !j;
             incr j
           done
         end
         else
           match prefer with
           | Some _ ->
             entering := best_priced st ~banned prefer;
             if !entering = -1 then entering := best_priced st ~banned None
           | None ->
             let tried = ref 0 in
             while !entering = -1 && !tried < st.n do
               let start = st.pp_cursor in
               let stop = Stdlib.min st.n (start + seg) in
               let best = ref 0.0 in
               for j = start to stop - 1 do
                 if eligible st banned j then begin
                   let dj = cost.(j) -. col_dot st.a j st.y in
                   let aj = attract st j dj in
                   if aj > !best then begin
                     best := aj;
                     entering := j
                   end
                 end
               done;
               tried := !tried + (stop - start);
               st.pp_cursor <- (if stop >= st.n then 0 else stop)
             done);
        if !entering = -1 then `Optimal
        else begin
          let q = !entering in
          let sigma = if st.vstat.(q) = at_lower then 1.0 else -1.0 in
          Array.fill st.w 0 st.m 0.0;
          Sparse.scatter_col st.a q st.w;
          ftran st st.w;
          match ratio_test st ~q ~sigma ~use_bland with
          | `Unbounded -> `Unbounded
          | `Flip ->
            incr iters;
            apply_flip st ~q ~sigma;
            loop ()
          | `Pivot (row, t, to_upper) ->
            incr iters;
            do_pivot st ~row ~q ~sigma ~t ~to_upper;
            loop ()
        end
      end
    in
    loop ()

  (* Drive remaining basic artificials out after Phase 1 (same scan and
     threshold as the dense engine; replacements enter from lower). *)
  let drive_out st ~is_artificial iters =
    for i = 0 to st.m - 1 do
      if is_artificial st.basis.(i) then begin
        Array.fill st.rho 0 st.m 0.0;
        st.rho.(i) <- 1.0;
        btran st st.rho;
        let found = ref (-1) in
        (try
           for j = 0 to st.n - 1 do
             if
               (not (is_artificial j))
               && st.vstat.(j) = at_lower
               && st.ub.(j) > 0.0
               && Float.abs (col_dot st.a j st.rho) > 1e-7
             then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          let q = !found in
          Array.fill st.w 0 st.m 0.0;
          Sparse.scatter_col st.a q st.w;
          ftran st st.w;
          let t = Float.max 0.0 (st.xb.(i) /. st.w.(i)) in
          incr iters;
          do_pivot st ~row:i ~q ~sigma:1.0 ~t ~to_upper:false
        end
      end
    done

  (* Bounded dual-simplex repair: only entered when the reinstalled
     basis is dual feasible (at-lower columns price >= 0, at-upper
     columns price <= 0).  Handles both primal violation kinds — a basic
     value below zero (the classic case) and a basic value pushed above
     its now-tighter range (the MIP bound-fixing case); the leaving
     variable exits to the violated bound and the entering column is
     chosen by the dual ratio test restricted to sign-compatible
     candidates.  Any doubt -> false, caller falls back to Phase 1. *)
  let dual_repair st ~max_iters ~deadline iters =
    let cost = st.cost in
    let is_art j = j >= st.art0 in
    compute_y st cost;
    compute_d st cost;
    let dual_ok = ref true in
    for j = 0 to st.n - 1 do
      if (not (is_art j)) && st.vstat.(j) <> basic && st.ub.(j) > 0.0 then
        if st.vstat.(j) = at_lower then begin
          if st.d.(j) < -.feas_eps then dual_ok := false
        end
        else if st.d.(j) > feas_eps then dual_ok := false
    done;
    if not !dual_ok then false
    else begin
      let stall_cap = 10 * (st.m + st.n) in
      let steps = ref 0 in
      let result = ref `Run in
      while !result = `Run do
        if
          !iters > max_iters
          || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
          || !steps > stall_cap
        then result := `Fail
        else begin
          let row = ref (-1) and worst = ref feas_eps and below = ref true in
          for i = 0 to st.m - 1 do
            if -.st.xb.(i) > !worst then begin
              worst := -.st.xb.(i);
              row := i;
              below := true
            end
            else begin
              let ubi = st.ub.(st.basis.(i)) in
              if ubi < infinity && st.xb.(i) -. ubi > !worst then begin
                worst := st.xb.(i) -. ubi;
                row := i;
                below := false
              end
            end
          done;
          if !row = -1 then result := `Done
          else begin
            let r = !row in
            Array.fill st.rho 0 st.m 0.0;
            st.rho.(r) <- 1.0;
            btran st st.rho;
            let col = ref (-1) and best = ref infinity in
            for j = 0 to st.n - 1 do
              if (not (is_art j)) && st.vstat.(j) <> basic && st.ub.(j) > 0.0
              then begin
                let alpha = col_dot st.a j st.rho in
                let ratio =
                  if !below then
                    if st.vstat.(j) = at_lower && alpha < -.eps then
                      st.d.(j) /. -.alpha
                    else if st.vstat.(j) = at_upper && alpha > eps then
                      -.st.d.(j) /. alpha
                    else infinity
                  else if st.vstat.(j) = at_lower && alpha > eps then
                    st.d.(j) /. alpha
                  else if st.vstat.(j) = at_upper && alpha < -.eps then
                    st.d.(j) /. alpha
                  else infinity
                in
                if
                  ratio < !best -. eps
                  || (ratio < !best +. eps && ratio < infinity
                      && (!col = -1 || j < !col))
                then begin
                  best := ratio;
                  col := j
                end
              end
            done;
            if !col = -1 then result := `Fail
            else begin
              let q = !col in
              Array.fill st.w 0 st.m 0.0;
              Sparse.scatter_col st.a q st.w;
              ftran st st.w;
              incr steps;
              incr iters;
              let leave = st.basis.(r) in
              st.vstat.(leave) <- (if !below then at_lower else at_upper);
              st.vstat.(q) <- basic;
              st.basis.(r) <- q;
              (if Sparse.Lu.update st.f ~leaving_row:r then begin
                 st.c_ft <- st.c_ft + 1;
                 maybe_refactor st
               end
               else refactor st);
              (* The dual step changes several basic values at once
                 (entering from either bound): resync rather than track
                 incrementally — repairs are a handful of pivots. *)
              compute_xb st;
              compute_y st cost;
              compute_d st cost
            end
          end
        end
      done;
      !result = `Done && arts_zero st
    end

  (* Warm reinstall: translate the stored basis (original variable ids,
     reduced row ids) into current columns and factorize the set — one
     LU factorization, no priced pivots.  The at-upper set restores from
     [b_upper] through the presolve column map. *)
  let try_exact_install (red : Presolve.t) st wb =
    if wb.b_m <> st.m then None
    else begin
      let m = st.m in
      let slack_col = Array.make m (-1)
      and surplus_col = Array.make m (-1)
      and art_col = Array.make m (-1) in
      Array.iteri
        (fun j k ->
          match k with
          | Slack i -> slack_col.(i) <- j
          | Surplus i -> surplus_col.(i) <- j
          | Artificial i -> art_col.(i) <- j
          | Structural _ -> ())
        st.kinds;
      let target i =
        match wb.b_entries.(i) with
        | Bstructural j ->
          if j < red.Presolve.p_nv && red.Presolve.col_map.(j) >= 0 then
            red.Presolve.col_map.(j)
          else -1
        | Brow_slack r -> if r < m then slack_col.(r) else -1
        | Brow_surplus r -> if r < m then surplus_col.(r) else -1
        | Brow_artificial r -> if r < m then art_col.(r) else -1
      in
      let targets = Array.init m target in
      st.c_factor <- st.c_factor + 1;
      let basis_out = Array.make m (-1) in
      (* A failed install leaves [st.f] half-built; the caller then
         discards [st] for a fresh state. *)
      let dropped =
        Sparse.Lu.refactorize st.f st.a ~targets ~crash:st.crash ~basis_out
      in
      if dropped <> [] then None
      else begin
        st.base_nnz <- Sparse.Lu.nnz st.f;
        Array.blit basis_out 0 st.basis 0 m;
        Array.fill st.vstat 0 st.n at_lower;
        Array.iter
          (fun j ->
            if j >= 0 && j < red.Presolve.p_nv then begin
              let rj = red.Presolve.col_map.(j) in
              if rj >= 0 && st.ub.(rj) > 0.0 && st.ub.(rj) < infinity then
                st.vstat.(rj) <- at_upper
            end)
          wb.b_upper;
        Array.iter (fun j -> st.vstat.(j) <- basic) st.basis;
        compute_xb st;
        let rhs_ok = ref true and art_ok = ref true in
        for i = 0 to m - 1 do
          let ubi = st.ub.(st.basis.(i)) in
          if st.xb.(i) < -.feas_eps || st.xb.(i) > ubi +. feas_eps then
            rhs_ok := false;
          match st.kinds.(st.basis.(i)) with
          | Artificial _ when st.xb.(i) > feas_eps -> art_ok := false
          | _ -> ()
        done;
        if not !art_ok then None else Some !rhs_ok
      end
    end

  let warm_prefer_red (red : Presolve.t) n wb =
    let pref = Array.make n false in
    Array.iter
      (function
        | Bstructural j when j < red.Presolve.p_nv ->
          let rj = red.Presolve.col_map.(j) in
          if rj >= 0 then pref.(rj) <- true
        | _ -> ())
      wb.b_entries;
    pref

  let solve_reduced (red : Presolve.t) ~max_iters ~deadline ~warm =
    let nv0 = red.Presolve.p_nv in
    let sign = red.Presolve.sign in
    let finish ~x_red ~y_red ~iters ~degraded ~warm_used ~phase1_skipped
        ~repaired ~st_opt =
      let x_orig, y_min = Presolve.postsolve red ~x:x_red ~y:y_red in
      let objective = ref 0.0 in
      for j = 0 to nv0 - 1 do
        objective :=
          !objective +. (sign *. red.Presolve.cost_min.(j) *. x_orig.(j))
      done;
      let duals = Array.map (fun v -> sign *. v) y_min in
      let b_entries, b_upper, b_m, refactors, ftn, btn, ftu, flips, fill =
        match st_opt with
        | None -> ([||], [||], 0, 0, 0, 0, 0, 0, 0)
        | Some st ->
          let entries =
            Array.map
              (fun bcol ->
                match st.kinds.(bcol) with
                | Structural j -> Bstructural red.Presolve.col_of.(j)
                | Slack i -> Brow_slack i
                | Surplus i -> Brow_surplus i
                | Artificial i -> Brow_artificial i)
              st.basis
          in
          let upper =
            let acc = ref [] in
            for j = st.nv - 1 downto 0 do
              if st.vstat.(j) = at_upper then
                acc := red.Presolve.col_of.(j) :: !acc
            done;
            Array.of_list !acc
          in
          ( entries, upper, st.m, st.c_factor, st.c_ftran, st.c_btran,
            st.c_ft, st.c_flips, Sparse.Lu.nnz st.f )
      in
      Optimal
        {
          objective = !objective;
          values = x_orig;
          duals;
          iterations = iters;
          degraded;
          basis = { b_nv = nv0; b_m; b_entries; b_upper };
          warm_used;
          phase1_skipped;
          repaired;
          engine = Lu;
          refactorizations = refactors;
          ftran_nnz = ftn;
          btran_nnz = btn;
          ft_updates = ftu;
          bound_flips = flips;
          lu_fill_nnz = fill;
          presolve_rows = red.Presolve.rows_removed;
          presolve_cols = red.Presolve.cols_removed;
        }
    in
    if red.Presolve.r_nv = 0 then begin
      (* Presolve solved the model outright; the surviving rows (if
         any) have empty left-hand sides — check their consistency. *)
      let ok = ref true in
      Array.iteri
        (fun ri s ->
          let r = red.Presolve.r_rhs.(ri) in
          let tol = feas_eps *. (1.0 +. Float.abs r) in
          match s with
          | Lp.Le -> if r < -.tol then ok := false
          | Lp.Ge -> if r > tol then ok := false
          | Lp.Eq -> if Float.abs r > tol then ok := false)
        red.Presolve.r_sense;
      if not !ok then Infeasible
      else
        (* A supplied warm basis is subsumed: presolve reached the
           optimum without a single pivot, which is at least as good
           as any reinstall. *)
        finish ~x_red:[||]
          ~y_red:(Array.make red.Presolve.r_nc 0.0)
          ~iters:0 ~degraded:false
          ~warm_used:(Option.is_some warm)
          ~phase1_skipped:true ~repaired:false ~st_opt:None
    end
    else begin
      let iters = ref 0 in
      let st, warm_used, phase1_skipped, repaired, prefer =
        match warm with
        | Some wb when wb.b_nv = nv0 -> (
          let st0 = make_state red in
          match try_exact_install red st0 wb with
          | Some true -> (st0, true, true, false, None)
          | Some false when dual_repair st0 ~max_iters ~deadline iters ->
            (st0, true, true, true, None)
          | Some false | None ->
            ( make_state red, true, false, true,
              Some (warm_prefer_red red st0.n wb) ))
        | _ -> (make_state red, false, false, false, None)
      in
      let is_artificial j = j >= st.art0 in
      let feasible_start =
        if phase1_skipped then true
        else begin
          let c1 = Array.make st.n 0.0 in
          Array.iteri
            (fun j k ->
              match k with Artificial _ -> c1.(j) <- 1.0 | _ -> ())
            st.kinds;
          (match
             optimize st ~cost:c1 ~banned:is_artificial ?prefer ~max_iters
               ~deadline iters
           with
          | `Unbounded ->
            raise (Numerical "Simplex: phase 1 unbounded (internal error)")
          | `Budget -> raise Timeout
          | `Optimal -> ());
          phase1_sum st <= feas_eps
        end
      in
      if not feasible_start then Infeasible
      else begin
        drive_out st ~is_artificial iters;
        let cost = st.cost in
        let extract ~degraded =
          compute_xb st;
          let xr = Array.make st.nv 0.0 in
          for j = 0 to st.nv - 1 do
            if st.vstat.(j) = at_upper then xr.(j) <- st.ub.(j)
          done;
          for i = 0 to st.m - 1 do
            match st.kinds.(st.basis.(i)) with
            | Structural j -> xr.(j) <- st.xb.(i)
            | Slack _ | Surplus _ | Artificial _ -> ()
          done;
          let x_red =
            Array.init st.nv (fun j -> red.Presolve.r_lb.(j) +. xr.(j))
          in
          compute_y st cost;
          let y_red =
            Array.init st.m (fun i ->
                if st.flipped.(i) then -.st.y.(i) else st.y.(i))
          in
          finish ~x_red ~y_red ~iters:!iters ~degraded ~warm_used
            ~phase1_skipped ~repaired ~st_opt:(Some st)
        in
        match
          optimize st ~cost ~banned:is_artificial ~max_iters ~deadline
            iters
        with
        | `Unbounded -> Unbounded
        | `Optimal -> extract ~degraded:false
        | `Budget -> extract ~degraded:true
      end
    end

  (* The same variables and constraints under a zero objective. *)
  let without_objective model =
    let m = Lp.create () in
    let vars =
      Array.map (fun (lb, ub) -> Lp.add_var m ~lb ~ub "") (Lp.Internal.bounds model)
    in
    Array.iter
      (fun c ->
        let terms = List.map (fun (v, a) -> (a, vars.(v))) c.Lp.Internal.terms in
        ignore (Lp.add_constraint m terms c.Lp.Internal.sense c.Lp.Internal.rhs))
      (Lp.Internal.constraints model);
    m

  let rec solve model ~max_iters ~deadline ~warm =
    match Presolve.reduce model with
    | Presolve.Infeasible -> Infeasible
    | Presolve.Unbounded -> (
      (* An empty improving column with no finite bound certifies
         unboundedness only if the rest of the model is feasible: decide
         that by solving the constraints alone. *)
      match solve (without_objective model) ~max_iters ~deadline ~warm:None with
      | Optimal _ -> Unbounded
      | Infeasible | Unbounded -> Infeasible)
    | Presolve.Reduced red -> (
      (* Pivots from a reinstalled warm basis can end in a basis the
         refactorization finds singular; the cold crash start does not
         carry that history, so a warm solve restarts from it once. *)
      try solve_reduced red ~max_iters ~deadline ~warm
      with Singular when Option.is_some warm ->
        solve_reduced red ~max_iters ~deadline ~warm:None)
end

let solve ?(max_iters = 200_000) ?deadline ?warm ?engine model =
  let engine = match engine with Some e -> e | None -> !default_engine in
  match engine with
  | Dense -> solve_dense (prepare model) ~max_iters ~deadline ~warm
  | Lu -> (
    try Blu.solve model ~max_iters ~deadline ~warm
    with Blu.Singular ->
      raise (Numerical "Simplex/lu: refactorization found basis singular"))

let value sol (v : Lp.var) = sol.values.((v :> int))

let dual sol i = sol.duals.(i)

let feasible ?(eps = 1e-6) model x =
  let bounds = Lp.Internal.bounds model in
  let constrs = Lp.Internal.constraints model in
  Array.length x = Array.length bounds
  && Array.for_all2
       (fun xi (lb, ub) -> xi >= lb -. eps && xi <= ub +. eps)
       x bounds
  && Array.for_all
       (fun c ->
         let lhs =
           List.fold_left (fun acc (v, coef) -> acc +. (coef *. x.(v))) 0.0 c.Lp.Internal.terms
         in
         match c.Lp.Internal.sense with
         | Lp.Le -> lhs <= c.Lp.Internal.rhs +. eps
         | Lp.Ge -> lhs >= c.Lp.Internal.rhs -. eps
         | Lp.Eq -> Float.abs (lhs -. c.Lp.Internal.rhs) <= eps)
       constrs

(* Reduced costs and the duality gap are taken in minimization form:
   [y] there is [sign * dual], so [y <= 0] on Le rows and [y >= 0] on Ge
   rows, and d_j = sign * c_j - Σ_i y_i a_ij must be >= 0 unless x_j may
   rise no further (finite upper bound) and <= 0 unless it may fall no
   further (finite lower bound).  With those signs the gap

     sign * c'x - dual objective
       = Σ_i y_i (a_i x - b_i) + Σ_j d_j+ (x_j - lb_j) + d_j- (ub_j - x_j)

   is a sum of nonnegative complementary-slackness terms, summed here
   directly instead of as a difference of two large objectives. *)
let certify ?(eps = 1e-6) model sol =
  let bounds = Lp.Internal.bounds model in
  let constrs = Lp.Internal.constraints model in
  let dir, obj = Lp.Internal.objective model in
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let x = sol.values and duals = sol.duals in
  let scale = 1.0 +. Float.abs sol.objective in
  if sol.degraded then Error "degraded solution: duals of an interrupted basis"
  else if Array.length x <> Array.length bounds
          || Array.length duals <> Array.length constrs
  then Error "dimension mismatch"
  else if not (feasible ~eps model x) then Error "primal infeasible"
  else begin
    let px = ref 0.0 in
    Array.iteri (fun j c -> px := !px +. (c *. x.(j))) obj;
    if Float.abs (!px -. sol.objective) > eps *. scale then
      Error (Printf.sprintf "objective %g is not c'x = %g" sol.objective !px)
    else begin
      let d = Array.map (fun c -> sign *. c) obj in
      let dmag = Array.map Float.abs d in
      let gap = ref 0.0 and failure = ref None in
      let fail msg = if !failure = None then failure := Some msg in
      Array.iteri
        (fun i c ->
          let y = sign *. duals.(i) in
          (match c.Lp.Internal.sense with
          | Lp.Le when y > eps -> fail (Printf.sprintf "dual sign of Le row %d" i)
          | Lp.Ge when y < -.eps -> fail (Printf.sprintf "dual sign of Ge row %d" i)
          | _ -> ());
          let lhs =
            List.fold_left
              (fun acc (j, a) ->
                d.(j) <- d.(j) -. (y *. a);
                dmag.(j) <- dmag.(j) +. Float.abs (y *. a);
                acc +. (a *. x.(j)))
              0.0 c.Lp.Internal.terms
          in
          gap := !gap +. (y *. (lhs -. c.Lp.Internal.rhs)))
        constrs;
      Array.iteri
        (fun j dj ->
          let lb, ub = bounds.(j) in
          let tol = eps *. (1.0 +. dmag.(j)) in
          if dj > tol then
            if lb = neg_infinity then fail (Printf.sprintf "reduced cost of x%d" j)
            else gap := !gap +. (dj *. (x.(j) -. lb))
          else if dj < -.tol then
            if ub = infinity then fail (Printf.sprintf "reduced cost of x%d" j)
            else gap := !gap +. (-.dj *. (ub -. x.(j))))
        d;
      match !failure with
      | Some msg -> Error msg
      | None when Float.abs !gap > eps *. scale ->
        Error (Printf.sprintf "duality gap %g" !gap)
      | None -> Ok ()
    end
  end
