type t = {
  rows : int;
  cols : int;
  colptr : int array;
  rowidx : int array;
  values : float array;
}

let of_triplets ~rows ~cols ts =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg "Sparse.of_triplets: index out of range")
    ts;
  (* Two-pass counting sort by column, then an in-column sort by row and
     a merge of duplicates.  Everything below is a pure function of the
     triplet multiset, so structurally equal inputs yield bit-identical
     storage. *)
  let count = Array.make (cols + 1) 0 in
  List.iter (fun (_, c, _) -> count.(c + 1) <- count.(c + 1) + 1) ts;
  for j = 1 to cols do
    count.(j) <- count.(j) + count.(j - 1)
  done;
  let n_raw = count.(cols) in
  let raw_r = Array.make n_raw 0 and raw_v = Array.make n_raw 0.0 in
  let cursor = Array.copy count in
  List.iter
    (fun (r, c, v) ->
      let k = cursor.(c) in
      raw_r.(k) <- r;
      raw_v.(k) <- v;
      cursor.(c) <- k + 1)
    ts;
  (* Sort each column segment by row (insertion sort: segments are tiny)
     and fold duplicates. *)
  let colptr = Array.make (cols + 1) 0 in
  let out_r = Array.make n_raw 0 and out_v = Array.make n_raw 0.0 in
  let w = ref 0 in
  for j = 0 to cols - 1 do
    colptr.(j) <- !w;
    let lo = count.(j) and hi = cursor.(j) in
    for k = lo + 1 to hi - 1 do
      let r = raw_r.(k) and v = raw_v.(k) in
      let i = ref (k - 1) in
      while !i >= lo && raw_r.(!i) > r do
        raw_r.(!i + 1) <- raw_r.(!i);
        raw_v.(!i + 1) <- raw_v.(!i);
        decr i
      done;
      raw_r.(!i + 1) <- r;
      raw_v.(!i + 1) <- v
    done;
    let k = ref lo in
    while !k < hi do
      let r = raw_r.(!k) in
      let acc = ref 0.0 in
      while !k < hi && raw_r.(!k) = r do
        acc := !acc +. raw_v.(!k);
        incr k
      done;
      if !acc <> 0.0 then begin
        out_r.(!w) <- r;
        out_v.(!w) <- !acc;
        incr w
      end
    done
  done;
  colptr.(cols) <- !w;
  { rows; cols; colptr; rowidx = Array.sub out_r 0 !w; values = Array.sub out_v 0 !w }

let nnz a = a.colptr.(a.cols)

let col_nnz a j = a.colptr.(j + 1) - a.colptr.(j)

let iter_col a j f =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    f a.rowidx.(k) a.values.(k)
  done

let col_dot a j y =
  let acc = ref 0.0 in
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    acc := !acc +. (a.values.(k) *. y.(a.rowidx.(k)))
  done;
  !acc

let scatter_col a j x =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    x.(a.rowidx.(k)) <- x.(a.rowidx.(k)) +. a.values.(k)
  done

let transpose a =
  let colptr = Array.make (a.rows + 1) 0 in
  let n = nnz a in
  for k = 0 to n - 1 do
    colptr.(a.rowidx.(k) + 1) <- colptr.(a.rowidx.(k) + 1) + 1
  done;
  for i = 1 to a.rows do
    colptr.(i) <- colptr.(i) + colptr.(i - 1)
  done;
  let rowidx = Array.make n 0 and values = Array.make n 0.0 in
  let cursor = Array.copy colptr in
  (* Walking columns in order writes each transposed column's entries in
     increasing (original) column order, preserving the sortedness
     invariant. *)
  for j = 0 to a.cols - 1 do
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowidx.(k) in
      let p = cursor.(i) in
      rowidx.(p) <- j;
      values.(p) <- a.values.(k);
      cursor.(i) <- p + 1
    done
  done;
  { rows = a.cols; cols = a.rows; colptr; rowidx; values }

type mat = t

(* ---- Sparse LU basis factorization --------------------------------------

   [Lu] factors an m-row basis column set B (columns of a CSC matrix) as
   B = L⁻¹·H⁻¹·U up to the row/position permutation, where

   - L is the sequence of column-elimination ops (Gaussian multipliers)
     recorded at factorization time,
   - H is the sequence of Forrest–Tomlin row etas appended by {!update},
   - U is kept explicitly, both column-wise and row-wise, as a "permuted
     triangle": each pivot owns a stable {e id}, [ord] maps ids to their
     triangular position, and a basis update only cyclic-shifts the O(m)
     ordinal arrays — U entries are never renumbered.

   Factorization is right-looking Markowitz-flavored threshold pivoting:
   the active column with the fewest remaining nonzeros eliminates next
   (count buckets, lazily maintained), pivoting on the minimum-row-count
   entry within [tau] of the column's magnitude.  Ties break on the
   lowest column / row index and no randomness or clock is consulted, so
   the factor is a pure function of the input.

   FTRAN applies L then H in creation order and back-substitutes U in
   decreasing ordinal order; BTRAN runs Uᵀ forward and the transposed
   H/L ops in reverse.  Both are O(factor nonzeros + m).

   {!update} replaces the basis column of one row by a Forrest–Tomlin
   update: the spike (H·L)(entering column) was cached by the preceding
   {!ftran}; the old column is deleted, its id cyclic-shifted to the last
   ordinal, and the detached U row eliminated by a single new row eta.
   It refuses (returns [false]) when the new diagonal is too small
   relative to the spike or a multiplier explodes, signalling the caller
   to refactorize — the Bartels–Golub-style stability fallback. *)
module Lu = struct
  (* Growable parallel (index, value) arrays with swap-removal. *)
  type cell = { mutable ci : int array; mutable cv : float array; mutable clen : int }

  let cell_make () = { ci = Array.make 4 0; cv = Array.make 4 0.0; clen = 0 }

  let cell_clear c = c.clen <- 0

  let cell_push c i v =
    if c.clen = Array.length c.ci then begin
      let n = 2 * c.clen in
      let ci = Array.make n 0 and cv = Array.make n 0.0 in
      Array.blit c.ci 0 ci 0 c.clen;
      Array.blit c.cv 0 cv 0 c.clen;
      c.ci <- ci;
      c.cv <- cv
    end;
    c.ci.(c.clen) <- i;
    c.cv.(c.clen) <- v;
    c.clen <- c.clen + 1

  (* Remove the entry with index [i]; returns its value (0.0 if absent). *)
  let cell_remove c i =
    let r = ref 0.0 in
    (try
       for k = 0 to c.clen - 1 do
         if c.ci.(k) = i then begin
           r := c.cv.(k);
           c.clen <- c.clen - 1;
           c.ci.(k) <- c.ci.(c.clen);
           c.cv.(k) <- c.cv.(c.clen);
           raise Exit
         end
       done
     with Exit -> ());
    !r

  (* L op: forall k, x.(o_rows.(k)) -= o_vals.(k) *. x.(o_piv).
     H op: x.(o_piv) -= Σ_k o_vals.(k) *. x.(o_rows.(k)). *)
  type op = { o_piv : int; o_rows : int array; o_vals : float array }

  let dummy_op = { o_piv = 0; o_rows = [||]; o_vals = [||] }

  type t = {
    m : int;
    ord : int array;  (* id -> triangular position *)
    id_at : int array;  (* position -> id *)
    row_of : int array;  (* id -> pivot row *)
    id_of_row : int array;  (* row -> id *)
    mutable l_ops : op array;
    mutable n_l : int;
    mutable h_ops : op array;
    mutable n_h : int;
    ucols : cell array;  (* by id: (row, value), diagonal excluded *)
    urows : cell array;  (* by row: (id, value), diagonal excluded *)
    udiag : float array;  (* by id *)
    mutable unnz : int;  (* U entries incl. diagonals *)
    mutable opnnz : int;  (* L + H op entries *)
    spike : float array;  (* (H·L)(column) cached by the last ftran *)
    rowacc : float array;  (* by id: update row-elimination accumulator *)
  }

  let nnz f = f.unnz + f.opnnz

  let updates f = f.n_h

  let push_l f op =
    if f.n_l = Array.length f.l_ops then begin
      let bigger = Array.make (2 * f.n_l) dummy_op in
      Array.blit f.l_ops 0 bigger 0 f.n_l;
      f.l_ops <- bigger
    end;
    f.l_ops.(f.n_l) <- op;
    f.n_l <- f.n_l + 1;
    f.opnnz <- f.opnnz + Array.length op.o_rows

  let push_h f op =
    if f.n_h = Array.length f.h_ops then begin
      let bigger = Array.make (2 * f.n_h) dummy_op in
      Array.blit f.h_ops 0 bigger 0 f.n_h;
      f.h_ops <- bigger
    end;
    f.h_ops.(f.n_h) <- op;
    f.n_h <- f.n_h + 1;
    f.opnnz <- f.opnnz + Array.length op.o_rows

  (* Factorize the column set found in [targets] (the row pairing is
     ignored; duplicates collapse).  Rows claimed by no target — and rows
     of targets dropped as numerically singular — take their [crash]
     identity column instead, which eliminates trivially (crash columns
     are singletons by construction).  [basis_out.(r)] receives the
     column pivoted on row r; the returned list is the dropped targets
     (empty on success). *)
  let factorize ?(tau = 0.1) (a : mat) ~targets ~crash ~basis_out =
    let m = a.rows in
    let f =
      { m;
        ord = Array.make m 0;
        id_at = Array.make m 0;
        row_of = Array.make m (-1);
        id_of_row = Array.make m (-1);
        l_ops = Array.make 16 dummy_op;
        n_l = 0;
        h_ops = Array.make 16 dummy_op;
        n_h = 0;
        ucols = Array.init m (fun _ -> cell_make ());
        urows = Array.init m (fun _ -> cell_make ());
        udiag = Array.make m 0.0;
        unnz = 0;
        opnnz = 0;
        spike = Array.make m 0.0;
        rowacc = Array.make m 0.0 }
    in
    (* Distinct target columns, lowest-index first. *)
    let cols =
      let seen = Hashtbl.create 64 in
      let acc = ref [] in
      Array.iter
        (fun c ->
          if c >= 0 && not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            acc := c :: !acc
          end)
        targets;
      let arr = Array.of_list !acc in
      Array.sort compare arr;
      arr
    in
    let nc = Array.length cols in
    (* Active submatrix: column slots with values; row-wise slot patterns
       are lazily cleaned (stale slots skipped on use). *)
    let acol = Array.init nc (fun _ -> cell_make ()) in
    let arow = Array.make m [] in
    let rowcnt = Array.make m 0 in
    let rowdone = Array.make m false and coldone = Array.make nc false in
    for s = 0 to nc - 1 do
      iter_col a cols.(s) (fun r v ->
          cell_push acol.(s) r v;
          arow.(r) <- s :: arow.(r);
          rowcnt.(r) <- rowcnt.(r) + 1)
    done;
    (* Count buckets over column slots, lazily revalidated on pop. *)
    let buckets = Array.make (m + 2) [] in
    for s = nc - 1 downto 0 do
      let k = acol.(s).clen in
      buckets.(k) <- s :: buckets.(k)
    done;
    let cur = ref 0 in
    let requeue s =
      let k = acol.(s).clen in
      buckets.(k) <- s :: buckets.(k);
      if k < !cur then cur := k
    in
    let nextid = ref 0 in
    let dropped = ref [] in
    let id_of_slot = Array.make nc (-1) in
    (* Pending U rows: at pivot time the surviving entries of the pivot
       row are keyed by column {e slot}; they are scattered into the
       id-indexed U once every slot has its id. *)
    let pend = Array.make nc [] in
    let claim r id =
      f.ord.(id) <- id;
      f.id_at.(id) <- id;
      f.row_of.(id) <- r;
      f.id_of_row.(r) <- id;
      rowdone.(r) <- true
    in
    (* Dense merge workspace for the Schur update. *)
    let wk = Array.make m 0.0 in
    let stamp = Array.make m (-1) in
    let steps = ref 0 in
    while !steps < nc do
      let slot = ref (-1) in
      while !slot = -1 do
        match buckets.(!cur) with
        | [] -> incr cur
        | s :: rest ->
          buckets.(!cur) <- rest;
          if (not coldone.(s)) && acol.(s).clen = !cur then slot := s
      done;
      let s = !slot in
      coldone.(s) <- true;
      incr steps;
      let c = acol.(s) in
      let cmax = ref 0.0 in
      for k = 0 to c.clen - 1 do
        let av = Float.abs c.cv.(k) in
        if av > !cmax then cmax := av
      done;
      if !cmax < 1e-11 then begin
        (* Cancelled or empty column: numerically singular, drop it. *)
        dropped := cols.(s) :: !dropped;
        for k = 0 to c.clen - 1 do
          rowcnt.(c.ci.(k)) <- rowcnt.(c.ci.(k)) - 1
        done;
        cell_clear c
      end
      else begin
        let thresh = tau *. !cmax in
        let prow = ref (-1) and pval = ref 0.0 and pcnt = ref max_int in
        for k = 0 to c.clen - 1 do
          let r = c.ci.(k) and v = c.cv.(k) in
          if Float.abs v >= thresh then
            if
              rowcnt.(r) < !pcnt || (rowcnt.(r) = !pcnt && (!prow = -1 || r < !prow))
            then begin
              prow := r;
              pval := v;
              pcnt := rowcnt.(r)
            end
        done;
        let r = !prow and piv = !pval in
        let id = !nextid in
        incr nextid;
        claim r id;
        id_of_slot.(s) <- id;
        f.udiag.(id) <- piv;
        f.unnz <- f.unnz + 1;
        (* L multipliers: the pivot column's entries off the pivot row. *)
        let lcnt = ref 0 in
        for k = 0 to c.clen - 1 do
          if c.ci.(k) <> r then incr lcnt
        done;
        let lrows = Array.make !lcnt 0 and lvals = Array.make !lcnt 0.0 in
        let kk = ref 0 in
        let inv = 1.0 /. piv in
        for k = 0 to c.clen - 1 do
          let i = c.ci.(k) in
          if i <> r then begin
            lrows.(!kk) <- i;
            lvals.(!kk) <- c.cv.(k) *. inv;
            incr kk;
            rowcnt.(i) <- rowcnt.(i) - 1
          end
        done;
        rowcnt.(r) <- rowcnt.(r) - 1;
        if !lcnt > 0 then push_l f { o_piv = r; o_rows = lrows; o_vals = lvals };
        cell_clear c;
        (* Extract the pivot row from the remaining active columns... *)
        let urow_entries = ref [] in
        List.iter
          (fun s' ->
            if (not coldone.(s')) && s' <> s then begin
              let v = cell_remove acol.(s') r in
              if v <> 0.0 then begin
                urow_entries := (s', v) :: !urow_entries;
                requeue s'
              end
            end)
          arow.(r);
        arow.(r) <- [];
        pend.(id) <- !urow_entries;
        (* ... and apply the rank-1 Schur update to each of them. *)
        if !lcnt > 0 then
          List.iter
            (fun (s', uv) ->
              let cc = acol.(s') in
              for k = 0 to cc.clen - 1 do
                stamp.(cc.ci.(k)) <- s';
                wk.(cc.ci.(k)) <- cc.cv.(k)
              done;
              let fill = ref [] in
              for k = 0 to !lcnt - 1 do
                let i = lrows.(k) in
                let delta = lvals.(k) *. uv in
                if stamp.(i) = s' then wk.(i) <- wk.(i) -. delta
                else begin
                  stamp.(i) <- s';
                  wk.(i) <- -.delta;
                  fill := i :: !fill
                end
              done;
              (* Rebuild the column in place: survivors first, fill after
                 (order within a cell is irrelevant — solves go through
                 the ordinal arrays). *)
              let old = cc.clen in
              cc.clen <- 0;
              for k = 0 to old - 1 do
                let i = cc.ci.(k) in
                if stamp.(i) = s' then begin
                  let v = wk.(i) in
                  stamp.(i) <- -1;
                  if Float.abs v > 1e-14 then cell_push cc i v
                  else rowcnt.(i) <- rowcnt.(i) - 1
                end
              done;
              List.iter
                (fun i ->
                  if stamp.(i) = s' then begin
                    let v = wk.(i) in
                    stamp.(i) <- -1;
                    if Float.abs v > 1e-14 then begin
                      cell_push cc i v;
                      arow.(i) <- s' :: arow.(i);
                      rowcnt.(i) <- rowcnt.(i) + 1
                    end
                  end)
                (List.rev !fill);
              requeue s')
            !urow_entries
      end
    done;
    (* Unclaimed rows take their crash identity column: a singleton at
       its own row, so it pivots on itself with no fill and no L op. *)
    for r = 0 to m - 1 do
      if not rowdone.(r) then begin
        let id = !nextid in
        incr nextid;
        claim r id;
        let v = ref 0.0 in
        iter_col a crash.(r) (fun i x -> if i = r then v := x);
        if Float.abs !v < 1e-11 then
          invalid_arg "Sparse.Lu.factorize: crash column is not an identity";
        f.udiag.(id) <- !v;
        f.unnz <- f.unnz + 1;
        basis_out.(r) <- crash.(r)
      end
    done;
    (* Scatter pending U rows now that every surviving slot has an id;
       entries pointing at dropped columns vanish with their column. *)
    for s = 0 to nc - 1 do
      let id = id_of_slot.(s) in
      if id >= 0 then begin
        basis_out.(f.row_of.(id)) <- cols.(s);
        List.iter
          (fun (s', v) ->
            let id' = id_of_slot.(s') in
            if id' >= 0 then begin
              let r = f.row_of.(id) in
              cell_push f.ucols.(id') r v;
              cell_push f.urows.(r) id' v;
              f.unnz <- f.unnz + 1
            end)
          pend.(id)
      end
    done;
    (f, !dropped)

  (* FTRAN: x := B⁻¹x.  Caches the post-L/H spike for a following
     {!update} — callers must FTRAN the entering column immediately
     before updating (the simplex pivot loop does). *)
  let ftran f x =
    for k = 0 to f.n_l - 1 do
      let op = f.l_ops.(k) in
      let xr = x.(op.o_piv) in
      if xr <> 0.0 then
        for i = 0 to Array.length op.o_rows - 1 do
          x.(op.o_rows.(i)) <- x.(op.o_rows.(i)) -. (op.o_vals.(i) *. xr)
        done
    done;
    for k = 0 to f.n_h - 1 do
      let op = f.h_ops.(k) in
      let acc = ref x.(op.o_piv) in
      for i = 0 to Array.length op.o_rows - 1 do
        acc := !acc -. (op.o_vals.(i) *. x.(op.o_rows.(i)))
      done;
      x.(op.o_piv) <- !acc
    done;
    Array.blit x 0 f.spike 0 f.m;
    (* U back-substitution in decreasing ordinal order, in place: column
       k's entries live in rows of strictly smaller ordinal, so writing
       the solved value at the pivot row never collides. *)
    for o = f.m - 1 downto 0 do
      let id = f.id_at.(o) in
      let r = f.row_of.(id) in
      let xr = x.(r) in
      if xr <> 0.0 then begin
        let z = xr /. f.udiag.(id) in
        x.(r) <- z;
        let c = f.ucols.(id) in
        for k = 0 to c.clen - 1 do
          x.(c.ci.(k)) <- x.(c.ci.(k)) -. (c.cv.(k) *. z)
        done
      end
    done

  (* BTRAN: y := B⁻ᵀy.  Uᵀ forward-substitution in increasing ordinal
     order, then the transposed H and L ops in reverse creation order. *)
  let btran f y =
    for o = 0 to f.m - 1 do
      let id = f.id_at.(o) in
      let r = f.row_of.(id) in
      let acc = ref y.(r) in
      let c = f.ucols.(id) in
      for k = 0 to c.clen - 1 do
        acc := !acc -. (c.cv.(k) *. y.(c.ci.(k)))
      done;
      y.(r) <- !acc /. f.udiag.(id)
    done;
    for k = f.n_h - 1 downto 0 do
      let op = f.h_ops.(k) in
      let yp = y.(op.o_piv) in
      if yp <> 0.0 then
        for i = 0 to Array.length op.o_rows - 1 do
          y.(op.o_rows.(i)) <- y.(op.o_rows.(i)) -. (op.o_vals.(i) *. yp)
        done
    done;
    for k = f.n_l - 1 downto 0 do
      let op = f.l_ops.(k) in
      let acc = ref y.(op.o_piv) in
      for i = 0 to Array.length op.o_rows - 1 do
        acc := !acc -. (op.o_vals.(i) *. y.(op.o_rows.(i)))
      done;
      y.(op.o_piv) <- !acc
    done

  (* Forrest–Tomlin update: the column basic in [leaving_row] is replaced
     by the column whose spike the last {!ftran} cached.  Returns [false]
     (factor must be rebuilt) on a small new diagonal or an exploding
     elimination multiplier; the factor may be half-mutated then, which
     is fine because the caller refactorizes from scratch. *)
  let update f ~leaving_row =
    let rl = leaving_row in
    let p = f.id_of_row.(rl) in
    let t = f.ord.(p) in
    let last = f.m - 1 in
    (* Detach row rl of U (saving its entries by id) and delete column p. *)
    let rowents = ref [] in
    let ur = f.urows.(rl) in
    for k = 0 to ur.clen - 1 do
      rowents := (ur.ci.(k), ur.cv.(k)) :: !rowents;
      ignore (cell_remove f.ucols.(ur.ci.(k)) rl);
      f.unnz <- f.unnz - 1
    done;
    cell_clear ur;
    let uc = f.ucols.(p) in
    for k = 0 to uc.clen - 1 do
      ignore (cell_remove f.urows.(uc.ci.(k)) p);
      f.unnz <- f.unnz - 1
    done;
    cell_clear uc;
    f.unnz <- f.unnz - 1 (* old diagonal *);
    (* Cyclic shift: id p moves to the last position. *)
    for o = t to last - 1 do
      let id = f.id_at.(o + 1) in
      f.id_at.(o) <- id;
      f.ord.(id) <- o
    done;
    f.id_at.(last) <- p;
    f.ord.(p) <- last;
    (* Eliminate the detached row against U in increasing ordinal order;
       fill lands at strictly larger ordinals, so a min-scan worklist
       terminates.  Multipliers accumulate into one row eta. *)
    let touched = ref [] in
    List.iter
      (fun (id, v) ->
        f.rowacc.(id) <- v;
        touched := id :: !touched)
      !rowents;
    let hrows = ref [] and hvals = ref [] and hcnt = ref 0 in
    let ok = ref true in
    let rec eliminate pending =
      match pending with
      | [] -> ()
      | _ ->
        let bj = ref (-1) and bo = ref max_int in
        List.iter
          (fun id -> if f.ord.(id) < !bo then begin bo := f.ord.(id); bj := id end)
          pending;
        let j = !bj in
        let rest = List.filter (fun id -> id <> j) pending in
        let mj = f.rowacc.(j) /. f.udiag.(j) in
        f.rowacc.(j) <- 0.0;
        if Float.abs mj > 1e-14 then begin
          if Float.abs mj > 1e8 then ok := false;
          let rj = f.row_of.(j) in
          hrows := rj :: !hrows;
          hvals := mj :: !hvals;
          incr hcnt;
          let urj = f.urows.(rj) in
          let added = ref rest in
          for k = 0 to urj.clen - 1 do
            let id' = urj.ci.(k) in
            if f.rowacc.(id') = 0.0 && not (List.mem id' !added) then
              added := id' :: !added;
            f.rowacc.(id') <- f.rowacc.(id') -. (mj *. urj.cv.(k))
          done;
          if !ok then eliminate !added
        end
        else eliminate rest
    in
    eliminate !touched;
    if not !ok then false
    else begin
      let hrows = Array.of_list (List.rev !hrows) in
      let hvals = Array.of_list (List.rev !hvals) in
      (* New column p = (row eta)·spike: only the rl entry changes. *)
      let s = f.spike in
      let newdiag = ref s.(rl) in
      for k = 0 to !hcnt - 1 do
        newdiag := !newdiag -. (hvals.(k) *. s.(hrows.(k)))
      done;
      let smax = ref 0.0 in
      for i = 0 to f.m - 1 do
        let av = Float.abs s.(i) in
        if av > !smax then smax := av
      done;
      if Float.abs !newdiag < 1e-11 || Float.abs !newdiag < 1e-9 *. !smax then
        false
      else begin
        if !hcnt > 0 then push_h f { o_piv = rl; o_rows = hrows; o_vals = hvals };
        f.udiag.(p) <- !newdiag;
        f.unnz <- f.unnz + 1;
        for i = 0 to f.m - 1 do
          if i <> rl && Float.abs s.(i) > 1e-14 then begin
            cell_push f.ucols.(p) i s.(i);
            cell_push f.urows.(i) p s.(i);
            f.unnz <- f.unnz + 1
          end
        done;
        true
      end
    end
end
