(* LP presolve / postsolve for the LU simplex engine.

   [reduce] applies a fixpoint of structural reductions to an {!Lp.model}
   and emits a smaller scaled problem; [postsolve] maps a reduced
   primal/dual solution back to the original space, reconstructing the
   duals of eliminated rows.

   Reductions (all deterministic, lowest-index tie-breaks):
   - empty rows           -> consistency check, drop (dual 0);
   - singleton Le/Ge rows -> variable bound tightening, drop the row
                             (the column stays; its dual is recovered at
                             postsolve from the residual reduced cost
                             when the solution sits on the tightened
                             bound);
   - singleton Eq rows    -> fix the variable, drop row and column;
   - duplicate rows       -> rows equal up to a positive scale with the
                             same sense collapse onto the lowest-index
                             member carrying the group-tightest rhs; at
                             postsolve the kept dual transfers to the
                             member whose constraint is actually tight;
   - empty columns        -> fix at the cost-preferred bound (detecting
                             unboundedness on an infinite bound);
   - dominated columns    -> a nonnegative min-form cost whose column
                             only relaxes constraints (>= 0 in Le rows,
                             <= 0 in Ge rows, absent from Eq rows) fixes
                             at its lower bound — this also covers the
                             eliminable singleton columns of the TE
                             models;
   - geometric-mean equilibration of the surviving structure.

   Warm-start invariant: which rows and columns survive — and hence the
   reduced column layout the simplex engine builds — depends only on the
   constraint {e patterns, senses and cost signs}, never on rhs or bound
   values.  Bound tightenings and fixed-variable {e values} are
   rhs-dependent, but they do not move the structure, so a basis stored
   against one reduction reinstalls exactly after rhs-only model changes
   (MIP bound fixings, Benders rhs updates, capacity perturbations). *)

type action =
  | Row_empty of int
  | Row_singleton_ineq of {
      row : int;
      col : int;
      coef : float;
      le : bool;  (* original sense Le (after coef sign, the bound side
                     follows from [coef] and [le]) *)
      bound : float;  (* the tightened bound value this row imposed *)
    }
  | Row_singleton_eq of { row : int; col : int; coef : float }
  | Dup_group of {
      kept : int;
      rows : int array;  (* member rows, ascending; [kept] first *)
      coefs : float array;  (* each member's coefficient at the anchor
                               column *)
      ge_like : bool;  (* normalized sense: true when larger scaled rhs
                          is tighter *)
      eq : bool;
    }
  | Col_fixed of { col : int; value : float }

type t = {
  p_nv : int;
  p_nc : int;
  sign : float;  (* Minimize -> 1.0, Maximize -> -1.0 *)
  cost_min : float array;  (* min-form costs over original columns *)
  cols : Sparse.t;  (* the original constraint matrix, read by column *)
  rhs_eff : float array;  (* per original row: rhs minus fixed-column
                             contributions (kept current for dead rows
                             too — duplicate-group postsolve needs it) *)
  r_nv : int;
  r_nc : int;
  r_ptr : int array;  (* scaled reduced rows: row ri spans
                         r_ptr.(ri) .. r_ptr.(ri+1) - 1 *)
  r_col : int array;  (* reduced column per entry, ascending in a row *)
  r_val : float array;
  r_sense : Lp.sense array;
  r_rhs : float array;
  r_lb : float array;  (* scaled reduced bounds *)
  r_ub : float array;
  r_cost : float array;  (* scaled min-form reduced costs *)
  col_of : int array;  (* reduced col -> original col *)
  col_map : int array;  (* original col -> reduced col or -1 *)
  row_of : int array;  (* reduced row -> original row *)
  row_map : int array;  (* original row -> reduced row or -1 *)
  rowscale : float array;  (* per original kept row *)
  colscale : float array;  (* per original kept col *)
  fixed : float array;  (* per original col; valid when col_map = -1 *)
  actions : action list;  (* head = last reduction applied *)
  rows_removed : int;
  cols_removed : int;
}

type outcome = Reduced of t | Infeasible | Unbounded

let feas = 1e-7

(* Duplicate-row signature hash: sense, sign of the anchor coefficient
   and every (column, coefficient / anchor) pair, the latter by its
   IEEE bits. *)
let[@inline] mix h x = ((h * 1_000_003) lxor x) land max_int

let reduce model =
  let bounds = Lp.Internal.bounds model in
  let constrs = Lp.Internal.constraints model in
  let dir, obj = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = Array.length constrs in
  Array.iter
    (fun (lb, _) ->
      if lb = neg_infinity then
        invalid_arg "Presolve.reduce: free variables (lb = -inf) unsupported")
    bounds;
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost_min = Array.map (fun c -> sign *. c) obj in
  let lb = Array.map fst bounds and ub = Array.map snd bounds in
  let row_sense = Array.map (fun c -> c.Lp.Internal.sense) constrs in
  let rhs_eff = Array.map (fun c -> c.Lp.Internal.rhs) constrs in
  (* Column view in ascending row order, then the row view it induces:
     each row's terms in ascending column order. *)
  let cols =
    let rp = Array.make (nc + 1) 0 in
    Array.iteri (fun i c -> rp.(i + 1) <- rp.(i) + List.length c.Lp.Internal.terms) constrs;
    let ri = Array.make rp.(nc) 0 and rv = Array.make rp.(nc) 0.0 in
    Array.iteri
      (fun i c ->
        List.iteri
          (fun k (j, a) ->
            ri.(rp.(i) + k) <- j;
            rv.(rp.(i) + k) <- a)
          c.Lp.Internal.terms)
      constrs;
    Sparse.of_rows ~rows:nc ~cols:nv rp ri rv
  in
  let col_ptr = cols.Sparse.colptr
  and col_row = cols.Sparse.rowidx
  and col_coef = cols.Sparse.values in
  let rows = Sparse.transpose cols in
  let row_ptr = rows.Sparse.colptr
  and row_col = rows.Sparse.rowidx
  and row_coef = rows.Sparse.values in
  let row_alive = Array.make nc true and col_alive = Array.make nv true in
  let rowlen = Array.init nc (fun i -> row_ptr.(i + 1) - row_ptr.(i)) in
  let fixed = Array.make nv 0.0 in
  let actions = ref [] in
  let failure = ref None in
  let fail o = if !failure = None then failure := Some o in
  let fix_col j v =
    col_alive.(j) <- false;
    fixed.(j) <- v;
    for k = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let i = col_row.(k) in
      rhs_eff.(i) <- rhs_eff.(i) -. (col_coef.(k) *. v);
      if row_alive.(i) then rowlen.(i) <- rowlen.(i) - 1
    done;
    if v < lb.(j) -. (feas *. (1.0 +. Float.abs v))
       || v > ub.(j) +. (feas *. (1.0 +. Float.abs v))
    then fail Infeasible
  in
  (* ---- Row scan: empty and singleton rows ---- *)
  let scan_rows () =
    let changed = ref false in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) then
        if rowlen.(i) = 0 then begin
          let r = rhs_eff.(i) in
          let tol = feas *. (1.0 +. Float.abs r) in
          (match row_sense.(i) with
          | Lp.Le -> if r < -.tol then fail Infeasible
          | Lp.Ge -> if r > tol then fail Infeasible
          | Lp.Eq -> if Float.abs r > tol then fail Infeasible);
          row_alive.(i) <- false;
          actions := Row_empty i :: !actions;
          changed := true
        end
        else if rowlen.(i) = 1 then begin
          let alive = ref 0 and at = ref (-1) in
          for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            if col_alive.(row_col.(k)) then begin
              incr alive;
              at := k
            end
          done;
          if !alive = 1 then begin
            let j = row_col.(!at) and a = row_coef.(!at) in
            let v = rhs_eff.(i) /. a in
            (match row_sense.(i) with
            | Lp.Eq ->
              if
                v < lb.(j) -. (feas *. (1.0 +. Float.abs v))
                || v > ub.(j) +. (feas *. (1.0 +. Float.abs v))
              then fail Infeasible
              else begin
                row_alive.(i) <- false;
                actions := Row_singleton_eq { row = i; col = j; coef = a } :: !actions;
                fix_col j v
              end
            | (Lp.Le | Lp.Ge) as s ->
              (* a·x ≤ r  tightens ub when a > 0, lb when a < 0 (and the
                 mirror for Ge). *)
              let tightens_ub = (s = Lp.Le) = (a > 0.0) in
              row_alive.(i) <- false;
              actions :=
                Row_singleton_ineq
                  { row = i; col = j; coef = a; le = s = Lp.Le; bound = v }
                :: !actions;
              if tightens_ub then begin
                if v < ub.(j) then ub.(j) <- v
              end
              else if v > lb.(j) then lb.(j) <- v;
              if lb.(j) > ub.(j) +. (1e-9 *. (1.0 +. Float.abs ub.(j))) then
                fail Infeasible);
            changed := true
          end
        end
    done;
    !changed
  in
  (* First alive entry of row i (its anchor), or -1. *)
  let anchor i =
    let k = ref row_ptr.(i) in
    while !k < row_ptr.(i + 1) && not col_alive.(row_col.(!k)) do
      incr k
    done;
    if !k < row_ptr.(i + 1) then !k else -1
  in
  (* Rows i and i' (anchors k0, k0') have the same normalized signature:
     sense, anchor sign, and alive (column, coef / anchor) sequence. *)
  let same_signature i k0 i' k0' =
    row_sense.(i) = row_sense.(i')
    && row_coef.(k0) > 0.0 = (row_coef.(k0') > 0.0)
    && rowlen.(i) = rowlen.(i')
    && begin
      let c0 = row_coef.(k0) and c0' = row_coef.(k0') in
      let k = ref k0 and k' = ref k0' and same = ref true in
      let e = row_ptr.(i + 1) and e' = row_ptr.(i' + 1) in
      while !same && (!k < e || !k' < e') do
        while !k < e && not col_alive.(row_col.(!k)) do incr k done;
        while !k' < e' && not col_alive.(row_col.(!k')) do incr k' done;
        if !k < e && !k' < e' then begin
          if
            row_col.(!k) <> row_col.(!k')
            || Int64.bits_of_float (row_coef.(!k) /. c0)
               <> Int64.bits_of_float (row_coef.(!k') /. c0')
          then same := false;
          incr k;
          incr k'
        end
        else if !k < e || !k' < e' then same := false
      done;
      !same
    end
  in
  (* ---- Duplicate rows: equal patterns up to a positive scale ---- *)
  let scan_dups () =
    let changed = ref false in
    (* Open-addressing table from signature hash to group; a group is
       named by its first (kept) row. *)
    let size = ref 16 in
    while !size < 2 * nc do size := 2 * !size done;
    let mask = !size - 1 in
    let slot_row = Array.make !size (-1) and slot_hash = Array.make !size 0 in
    let group_of = Array.make nc (-1) in
    let n_members = Array.make nc 0 in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) && rowlen.(i) >= 2 then begin
        let k0 = anchor i in
        let c0 = row_coef.(k0) in
        let sense = match row_sense.(i) with Lp.Le -> 1 | Lp.Ge -> 2 | Lp.Eq -> 3 in
        let h = ref (mix (mix 0 sense) (if c0 > 0.0 then 1 else 0)) in
        for k = k0 to row_ptr.(i + 1) - 1 do
          let j = row_col.(k) in
          if col_alive.(j) then
            h := mix (mix !h j) (Int64.to_int (Int64.bits_of_float (row_coef.(k) /. c0)))
        done;
        let h = !h in
        let p = ref (h land mask) and kept = ref (-1) in
        while !kept = -1 && slot_row.(!p) >= 0 do
          let r = slot_row.(!p) in
          if slot_hash.(!p) = h && same_signature i k0 r (anchor r) then kept := r
          else p := (!p + 1) land mask
        done;
        if !kept = -1 then begin
          slot_row.(!p) <- i;
          slot_hash.(!p) <- h;
          group_of.(i) <- i;
          n_members.(i) <- 1
        end
        else begin
          let kept = !kept in
          group_of.(i) <- kept;
          n_members.(kept) <- n_members.(kept) + 1;
          (* Fold row i into [kept]: keep the tighter scaled rhs. *)
          let ck = row_coef.(anchor kept) in
          let tk = rhs_eff.(kept) /. ck and ti = rhs_eff.(i) /. c0 in
          let ge_like = (row_sense.(i) = Lp.Ge) = (c0 > 0.0) in
          (match row_sense.(i) with
          | Lp.Eq ->
            if Float.abs (tk -. ti) > feas *. (1.0 +. Float.abs tk) then
              fail Infeasible
          | Lp.Le | Lp.Ge ->
            let tighter = if ge_like then ti > tk else ti < tk in
            if tighter then rhs_eff.(kept) <- ti *. ck);
          row_alive.(i) <- false;
          changed := true
        end
      end
    done;
    (* Record one action per multi-member group, in kept-row order.  A
       member's anchor coefficient is read before any column moves, so
       it is the one its signature was built from. *)
    let filled = Array.make nc 0 in
    let rows = Array.make nc [||] and coefs = Array.make nc [||] in
    for i = 0 to nc - 1 do
      let g = group_of.(i) in
      if g >= 0 && n_members.(g) > 1 then begin
        if filled.(g) = 0 then begin
          rows.(g) <- Array.make n_members.(g) 0;
          coefs.(g) <- Array.make n_members.(g) 0.0
        end;
        rows.(g).(filled.(g)) <- i;
        coefs.(g).(filled.(g)) <- row_coef.(anchor i);
        filled.(g) <- filled.(g) + 1
      end
    done;
    for kept = 0 to nc - 1 do
      if group_of.(kept) = kept && n_members.(kept) > 1 then begin
        let c0 = coefs.(kept).(0) in
        let ge_like = (row_sense.(kept) = Lp.Ge) = (c0 > 0.0) in
        actions :=
          Dup_group
            { kept; rows = rows.(kept); coefs = coefs.(kept); ge_like;
              eq = row_sense.(kept) = Lp.Eq }
          :: !actions
      end
    done;
    !changed
  in
  (* ---- Column scan: empty and dominated columns ---- *)
  let scan_cols () =
    let changed = ref false in
    for j = 0 to nv - 1 do
      if !failure = None && col_alive.(j) then begin
        let occupied = ref false and dominated = ref true in
        for k = col_ptr.(j) to col_ptr.(j + 1) - 1 do
          let i = col_row.(k) in
          if row_alive.(i) then begin
            occupied := true;
            let a = col_coef.(k) in
            match row_sense.(i) with
            | Lp.Le -> if a < 0.0 then dominated := false
            | Lp.Ge -> if a > 0.0 then dominated := false
            | Lp.Eq -> dominated := false
          end
        done;
        if not !occupied then begin
          let v =
            if cost_min.(j) < 0.0 then ub.(j)
            else lb.(j)
          in
          if v = infinity then fail Unbounded
          else begin
            actions := Col_fixed { col = j; value = v } :: !actions;
            fix_col j v;
            changed := true
          end
        end
        else if cost_min.(j) >= 0.0 && !dominated then begin
          actions := Col_fixed { col = j; value = lb.(j) } :: !actions;
          fix_col j lb.(j);
          changed := true
        end
      end
    done;
    !changed
  in
  let rec fixpoint pass =
    if !failure = None && pass < 10 then begin
      let c1 = scan_rows () in
      let c2 = if !failure = None then scan_dups () else false in
      let c3 = if !failure = None then scan_cols () else false in
      if c1 || c2 || c3 then fixpoint (pass + 1)
    end
  in
  fixpoint 0;
  match !failure with
  | Some o -> o
  | None ->
    (* ---- Materialize the reduced problem ---- *)
    let col_map = Array.make nv (-1) and row_map = Array.make nc (-1) in
    let r_nv = ref 0 and r_nc = ref 0 in
    for j = 0 to nv - 1 do
      if col_alive.(j) then begin
        col_map.(j) <- !r_nv;
        incr r_nv
      end
    done;
    for i = 0 to nc - 1 do
      if row_alive.(i) then begin
        row_map.(i) <- !r_nc;
        incr r_nc
      end
    done;
    let r_nv = !r_nv and r_nc = !r_nc in
    let col_of = Array.make r_nv 0 and row_of = Array.make r_nc 0 in
    Array.iteri (fun j rj -> if rj >= 0 then col_of.(rj) <- j) col_map;
    Array.iteri (fun i ri -> if ri >= 0 then row_of.(ri) <- i) row_map;
    (* Surviving terms of the surviving rows; [col_map] is increasing, so
       each row stays in ascending reduced-column order. *)
    let r_ptr = Array.make (r_nc + 1) 0 in
    Array.iteri
      (fun ri i ->
        let cnt = ref 0 in
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          if col_alive.(row_col.(k)) then incr cnt
        done;
        r_ptr.(ri + 1) <- r_ptr.(ri) + !cnt)
      row_of;
    let r_col = Array.make r_ptr.(r_nc) 0 and raw = Array.make r_ptr.(r_nc) 0.0 in
    Array.iteri
      (fun ri i ->
        let w = ref r_ptr.(ri) in
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let j = row_col.(k) in
          if col_alive.(j) then begin
            r_col.(!w) <- col_map.(j);
            raw.(!w) <- row_coef.(k);
            incr w
          end
        done)
      row_of;
    (* ---- Geometric-mean equilibration over the surviving structure ---- *)
    let rho = Array.make r_nc 1.0 and kap = Array.make r_nv 1.0 in
    let rcols = Sparse.of_rows ~rows:r_nc ~cols:r_nv r_ptr r_col raw in
    let c_ptr = rcols.Sparse.colptr
    and c_row = rcols.Sparse.rowidx
    and c_raw = rcols.Sparse.values in
    for _ = 1 to 2 do
      for ri = 0 to r_nc - 1 do
        let mn = ref infinity and mx = ref 0.0 in
        for k = r_ptr.(ri) to r_ptr.(ri + 1) - 1 do
          let v = Float.abs (raw.(k) *. kap.(r_col.(k))) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        if !mx > 0.0 then rho.(ri) <- 1.0 /. sqrt (!mn *. !mx)
      done;
      for rj = 0 to r_nv - 1 do
        let mn = ref infinity and mx = ref 0.0 in
        for k = c_ptr.(rj) to c_ptr.(rj + 1) - 1 do
          let v = Float.abs (c_raw.(k) *. rho.(c_row.(k))) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        if !mx > 0.0 then kap.(rj) <- 1.0 /. sqrt (!mn *. !mx)
      done
    done;
    let r_val = raw in
    for ri = 0 to r_nc - 1 do
      for k = r_ptr.(ri) to r_ptr.(ri + 1) - 1 do
        r_val.(k) <- raw.(k) *. rho.(ri) *. kap.(r_col.(k))
      done
    done;
    let r_sense = Array.map (fun i -> row_sense.(i)) row_of in
    let r_rhs = Array.mapi (fun ri i -> rhs_eff.(i) *. rho.(ri)) row_of in
    let r_lb = Array.mapi (fun rj j -> lb.(j) /. kap.(rj)) col_of in
    let r_ub =
      Array.mapi
        (fun rj j -> if ub.(j) = infinity then infinity else ub.(j) /. kap.(rj))
        col_of
    in
    let r_cost = Array.mapi (fun rj j -> cost_min.(j) *. kap.(rj)) col_of in
    let rowscale = Array.make nc 1.0 and colscale = Array.make nv 1.0 in
    Array.iteri (fun ri i -> rowscale.(i) <- rho.(ri)) row_of;
    Array.iteri (fun rj j -> colscale.(j) <- kap.(rj)) col_of;
    Reduced
      {
        p_nv = nv;
        p_nc = nc;
        sign;
        cost_min;
        cols;
        rhs_eff;
        r_nv;
        r_nc;
        r_ptr;
        r_col;
        r_val;
        r_sense;
        r_rhs;
        r_lb;
        r_ub;
        r_cost;
        col_of;
        col_map;
        row_of;
        row_map;
        rowscale;
        colscale;
        fixed;
        actions = !actions;
        rows_removed = nc - r_nc;
        cols_removed = nv - r_nv;
      }

(* Map a reduced (scaled) primal/dual point back to the original space.
   [x] is indexed by reduced column, [y] by reduced row; the returned
   duals are {e min-form} shadow prices (∂ min-objective / ∂ rhs) over
   the original rows — the caller applies the direction sign. *)
let postsolve t ~x ~y =
  let xo = Array.copy t.fixed in
  Array.iteri (fun rj j -> xo.(j) <- x.(rj) *. t.colscale.(j)) t.col_of;
  let yo = Array.make t.p_nc 0.0 in
  Array.iteri (fun ri i -> yo.(i) <- y.(ri) *. t.rowscale.(i)) t.row_of;
  (* Residual min-form reduced cost of an original column under the
     current original-row duals. *)
  let reduced_cost j =
    let a = t.cols in
    let acc = ref t.cost_min.(j) in
    for k = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
      acc := !acc -. (a.Sparse.values.(k) *. yo.(a.Sparse.rowidx.(k)))
    done;
    !acc
  in
  (* Actions head = last applied, so walking the list is already the
     reverse (LIFO) replay order. *)
  List.iter
    (fun act ->
      match act with
      | Row_empty _ | Col_fixed _ -> ()
      | Row_singleton_eq { row; col; coef } -> yo.(row) <- reduced_cost col /. coef
      | Row_singleton_ineq { row; col; coef; le; bound } ->
        if Float.abs (xo.(col) -. bound) <= 1e-6 *. (1.0 +. Float.abs bound) then begin
          let yv = reduced_cost col /. coef in
          (* Min-form sign guard: Le rows price <= 0, Ge rows >= 0.
             A violation only arises on degraded (budget-truncated)
             incumbents, whose duals are documented unreliable — clamp
             to 0 rather than emit a sign-infeasible price. *)
          let yv = if le then Float.min yv 0.0 else Float.max yv 0.0 in
          yo.(row) <- yv
        end
      | Dup_group { kept; rows; coefs; ge_like; eq } ->
        let ck = coefs.(0) in
        let yk = yo.(kept) in
        if yk <> 0.0 then begin
          (* The member whose constraint is actually tight. *)
          let ti = ref kept and tc = ref ck in
          if not eq then
            for k = 1 to Array.length rows - 1 do
              let i = rows.(k) and c = coefs.(k) in
              let tb = t.rhs_eff.(!ti) /. !tc and tv = t.rhs_eff.(i) /. c in
              let better = if ge_like then tv > tb else tv < tb in
              if better then begin
                ti := i;
                tc := c
              end
            done;
          if !ti <> kept then begin
            yo.(kept) <- 0.0;
            yo.(!ti) <- yk *. ck /. !tc
          end
        end)
    t.actions;
  (xo, yo)
