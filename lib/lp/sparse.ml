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

let col_nnz a j = a.colptr.(j + 1) - a.colptr.(j)

let scatter_col a j x =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    x.(a.rowidx.(k)) <- x.(a.rowidx.(k)) +. a.values.(k)
  done

(* The CSC form of the rows x cols matrix whose row [i] holds entries
   [ptr.(i) .. ptr.(i+1) - 1] of [idx] (column) and [vals]. *)
let csc_of_rows ~rows ~cols ptr idx vals =
  let colptr = Array.make (cols + 1) 0 in
  let n = ptr.(rows) in
  for k = 0 to n - 1 do
    colptr.(idx.(k) + 1) <- colptr.(idx.(k) + 1) + 1
  done;
  for j = 1 to cols do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  let rowidx = Array.make n 0 and values = Array.make n 0.0 in
  let cursor = Array.sub colptr 0 cols in
  (* Walking rows in order writes each column's entries in increasing
     row order, preserving the sortedness invariant. *)
  for i = 0 to rows - 1 do
    for k = ptr.(i) to ptr.(i + 1) - 1 do
      let j = idx.(k) in
      let p = cursor.(j) in
      rowidx.(p) <- i;
      values.(p) <- vals.(k);
      cursor.(j) <- p + 1
    done
  done;
  { rows; cols; colptr; rowidx; values }

let of_rows ~rows ~cols rowptr colidx values =
  if Array.length rowptr <> rows + 1 || rowptr.(0) <> 0 then
    invalid_arg "Sparse.of_rows: bad row pointer";
  for k = 0 to rowptr.(rows) - 1 do
    if colidx.(k) < 0 || colidx.(k) >= cols || values.(k) = 0.0 then
      invalid_arg "Sparse.of_rows: out-of-range or zero entry"
  done;
  let a = csc_of_rows ~rows ~cols rowptr colidx values in
  (* A column repeated within a row shows up as two equal, adjacent row
     indices in that column. *)
  for j = 0 to cols - 1 do
    for k = a.colptr.(j) + 1 to a.colptr.(j + 1) - 1 do
      if a.rowidx.(k) = a.rowidx.(k - 1) then
        invalid_arg "Sparse.of_rows: column repeated within a row"
    done
  done;
  a

(* Column [i] of the result is row [i] of [a]: a's columns, read as the
   rows of the transpose, regroup by row index. *)
let transpose a = csc_of_rows ~rows:a.cols ~cols:a.rows a.colptr a.rowidx a.values

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
   to refactorize — the Bartels–Golub-style stability fallback.

   Nothing on these paths allocates per entry: L and H live in flat op
   arrays, the factorization's per-row slot lists and count buckets are
   int stacks over one node pool, the update's worklist is a heap, and
   {!refactorize} rebuilds a factor inside its own storage.  The stacks
   visit their elements newest first; the Markowitz tie-breaks depend on
   that order. *)
module Lu = struct
  (* Growable parallel (index, value) arrays with swap-removal.  A cell
     owns no storage until its first push: most rows and columns of a
     factor stay empty. *)
  type cell = { mutable ci : int array; mutable cv : float array; mutable clen : int }

  let cell_make () = { ci = [||]; cv = [||]; clen = 0 }

  let cell_clear c = c.clen <- 0

  let cell_grow c =
    let n = Stdlib.max 4 (2 * c.clen) in
    let ci = Array.make n 0 and cv = Array.make n 0.0 in
    Array.blit c.ci 0 ci 0 c.clen;
    Array.blit c.cv 0 cv 0 c.clen;
    c.ci <- ci;
    c.cv <- cv

  let[@inline] cell_push c i v =
    if c.clen = Array.length c.ci then cell_grow c;
    c.ci.(c.clen) <- i;
    c.cv.(c.clen) <- v;
    c.clen <- c.clen + 1

  (* Slot of the entry with index [i], or -1 when absent. *)
  let cell_find c i =
    let k = ref 0 in
    while !k < c.clen && c.ci.(!k) <> i do
      incr k
    done;
    if !k < c.clen then !k else -1

  (* Delete slot [k] by moving the last entry into it. *)
  let cell_delete c k =
    c.clen <- c.clen - 1;
    c.ci.(k) <- c.ci.(c.clen);
    c.cv.(k) <- c.cv.(c.clen)

  let cell_remove c i =
    let k = cell_find c i in
    if k >= 0 then cell_delete c k

  (* Many int stacks over one node pool: [head.(l)] is the top node of
     stack l (-1 when empty) and nodes chain through [next].  Pops and
     walks from the head visit the newest element first, and a pushed
     duplicate shadows the older copy below it.  Popped nodes are
     recycled. *)
  type stacks = {
    head : int array;
    mutable next : int array;
    mutable item : int array;
    mutable used : int;
    mutable free : int;
  }

  let stacks_make n =
    { head = Array.make n (-1); next = [||]; item = [||]; used = 0; free = -1 }

  let stacks_clear s =
    Array.fill s.head 0 (Array.length s.head) (-1);
    s.used <- 0;
    s.free <- -1

  let stacks_push s l x =
    let k =
      if s.free >= 0 then begin
        let k = s.free in
        s.free <- s.next.(k);
        k
      end
      else begin
        if s.used = Array.length s.next then begin
          let n = Stdlib.max 64 (2 * s.used) in
          let next = Array.make n 0 and item = Array.make n 0 in
          Array.blit s.next 0 next 0 s.used;
          Array.blit s.item 0 item 0 s.used;
          s.next <- next;
          s.item <- item
        end;
        s.used <- s.used + 1;
        s.used - 1
      end
    in
    s.item.(k) <- x;
    s.next.(k) <- s.head.(l);
    s.head.(l) <- k

  (* Pop the top of a non-empty stack. *)
  let stacks_pop s l =
    let k = s.head.(l) in
    s.head.(l) <- s.next.(k);
    s.next.(k) <- s.free;
    s.free <- k;
    s.item.(k)

  (* A sequence of sparse ops in flat storage: op [k] pivots on
     [piv.(k)] and holds entries [ptr.(k) .. ptr.(k+1) - 1] of [idx] and
     [vals].
     L op: forall e, x.(idx.(e)) -= vals.(e) *. x.(piv).
     H op: x.(piv) -= Σ_e vals.(e) *. x.(idx.(e)). *)
  type etas = {
    mutable piv : int array;
    mutable ptr : int array;
    mutable n : int;
    mutable idx : int array;
    mutable vals : float array;
  }

  let etas_make () =
    { piv = Array.make 16 0; ptr = Array.make 17 0; n = 0; idx = Array.make 64 0;
      vals = Array.make 64 0.0 }

  let etas_clear e = e.n <- 0

  let etas_nnz e = e.ptr.(e.n)

  (* Room for one more op of up to [len] entries. *)
  let etas_reserve e len =
    if e.n + 1 >= Array.length e.piv then begin
      let n = 2 * Array.length e.piv in
      let piv = Array.make n 0 and ptr = Array.make (n + 1) 0 in
      Array.blit e.piv 0 piv 0 e.n;
      Array.blit e.ptr 0 ptr 0 (e.n + 1);
      e.piv <- piv;
      e.ptr <- ptr
    end;
    let need = e.ptr.(e.n) + len in
    if need > Array.length e.idx then begin
      let n = Stdlib.max need (2 * Array.length e.idx) in
      let idx = Array.make n 0 and vals = Array.make n 0.0 in
      (* Copy everything: entries of an op not yet sealed live past
         [ptr.(n)]. *)
      Array.blit e.idx 0 idx 0 (Array.length e.idx);
      Array.blit e.vals 0 vals 0 (Array.length e.vals);
      e.idx <- idx;
      e.vals <- vals
    end

  (* Seal the [len] entries written after the last op as op [n]. *)
  let etas_commit e piv len =
    e.piv.(e.n) <- piv;
    e.ptr.(e.n + 1) <- e.ptr.(e.n) + len;
    e.n <- e.n + 1

  type t = {
    m : int;
    ord : int array;  (* id -> triangular position *)
    id_at : int array;  (* position -> id *)
    row_of : int array;  (* id -> pivot row *)
    id_of_row : int array;  (* row -> id *)
    l : etas;  (* column ops recorded by the factorization *)
    h : etas;  (* row etas appended by updates *)
    ucols : cell array;  (* by id: (row, value), diagonal excluded *)
    urows : cell array;  (* by row: (id, value), diagonal excluded *)
    udiag : float array;  (* by id *)
    mutable unnz : int;  (* U entries incl. diagonals *)
    spike : float array;  (* (H·L)(column) cached by the last ftran *)
    rowacc : float array;  (* by id: update row-elimination accumulator *)
    (* Update workspace: a binary min-heap of ids keyed by [ord] and its
       membership flags. *)
    heap : int array;
    mutable hlen : int;
    queued : bool array;
    (* Factorization workspace, kept across refactorizations.  Slot
       arrays (one entry per distinct target column) grow on demand. *)
    mutable cols : int array;
    mutable acol : cell array;
    mutable coldone : bool array;
    mutable id_of_slot : int array;
    mutable pend_at : int array;
    mutable pend_slot : int array;
    mutable pend_val : float array;
    arow : stacks;  (* by row: active slots, lazily cleaned *)
    buckets : stacks;  (* by active count: slots, lazily revalidated *)
    rowcnt : int array;
    rowdone : bool array;
    wk : float array;
    stamp : int array;
    fill : int array;
  }

  let nnz f = f.unnz + etas_nnz f.l + etas_nnz f.h

  let updates f = f.h.n

  let create m =
    { m;
      ord = Array.make m 0;
      id_at = Array.make m 0;
      row_of = Array.make m (-1);
      id_of_row = Array.make m (-1);
      l = etas_make ();
      h = etas_make ();
      ucols = Array.init m (fun _ -> cell_make ());
      urows = Array.init m (fun _ -> cell_make ());
      udiag = Array.make m 0.0;
      unnz = 0;
      spike = Array.make m 0.0;
      rowacc = Array.make m 0.0;
      heap = Array.make m 0;
      hlen = 0;
      queued = Array.make m false;
      cols = [||];
      acol = [||];
      coldone = [||];
      id_of_slot = [||];
      pend_at = [||];
      pend_slot = Array.make 64 0;
      pend_val = Array.make 64 0.0;
      arow = stacks_make m;
      buckets = stacks_make (m + 2);
      rowcnt = Array.make m 0;
      rowdone = Array.make m false;
      wk = Array.make m 0.0;
      stamp = Array.make m (-1);
      fill = Array.make m 0 }

  let pend_grow f =
    let used = Array.length f.pend_slot in
    let ps = Array.make (2 * used) 0 and pv = Array.make (2 * used) 0.0 in
    Array.blit f.pend_slot 0 ps 0 used;
    Array.blit f.pend_val 0 pv 0 used;
    f.pend_slot <- ps;
    f.pend_val <- pv

  (* Store one pending U entry (slot, value) at position [used]. *)
  let[@inline] pend_push f used s v =
    if used = Array.length f.pend_slot then pend_grow f;
    f.pend_slot.(used) <- s;
    f.pend_val.(used) <- v

  (* Refactorize [f] in place from the column set found in [targets]
     (the row pairing is ignored; duplicates collapse).  Rows claimed by
     no target — and rows of targets dropped as numerically singular —
     take their [crash] identity column instead, which eliminates
     trivially (crash columns are singletons by construction).
     [basis_out.(r)] receives the column pivoted on row r; the returned
     list is the dropped targets (empty on success). *)
  let refactorize ?(tau = 0.1) f (a : mat) ~targets ~crash ~basis_out =
    let m = f.m in
    if a.rows <> m then invalid_arg "Sparse.Lu.refactorize: row count mismatch";
    etas_clear f.l;
    etas_clear f.h;
    Array.iter cell_clear f.ucols;
    Array.iter cell_clear f.urows;
    Array.fill f.row_of 0 m (-1);
    Array.fill f.id_of_row 0 m (-1);
    f.unnz <- 0;
    (* Distinct target columns, lowest-index first. *)
    if Array.length f.cols <> Array.length targets then
      f.cols <- Array.make (Array.length targets) 0;
    let cols = f.cols in
    Array.blit targets 0 cols 0 (Array.length targets);
    Array.sort Int.compare cols;
    let nc = ref 0 in
    for k = 0 to Array.length targets - 1 do
      let c = cols.(k) in
      if c >= 0 && (!nc = 0 || cols.(!nc - 1) <> c) then begin
        cols.(!nc) <- c;
        incr nc
      end
    done;
    let nc = !nc in
    if Array.length f.acol < nc then begin
      let old = Array.length f.acol in
      f.acol <- Array.init nc (fun s -> if s < old then f.acol.(s) else cell_make ());
      f.coldone <- Array.make nc false;
      f.id_of_slot <- Array.make nc (-1);
      f.pend_at <- Array.make (nc + 1) 0
    end;
    let acol = f.acol and coldone = f.coldone and id_of_slot = f.id_of_slot in
    let pend_at = f.pend_at in
    let arow = f.arow and buckets = f.buckets in
    let rowcnt = f.rowcnt and rowdone = f.rowdone in
    let wk = f.wk and stamp = f.stamp and fill = f.fill in
    stacks_clear arow;
    stacks_clear buckets;
    Array.fill rowcnt 0 m 0;
    Array.fill rowdone 0 m false;
    Array.fill stamp 0 m (-1);
    Array.fill coldone 0 nc false;
    Array.fill id_of_slot 0 nc (-1);
    (* Active submatrix: column slots with values; row-wise slot stacks
       are lazily cleaned (stale slots skipped on use). *)
    for s = 0 to nc - 1 do
      let c = cols.(s) in
      let cell = acol.(s) in
      cell_clear cell;
      for k = a.colptr.(c) to a.colptr.(c + 1) - 1 do
        let r = a.rowidx.(k) in
        cell_push cell r a.values.(k);
        stacks_push arow r s;
        rowcnt.(r) <- rowcnt.(r) + 1
      done
    done;
    (* Count buckets over column slots, lazily revalidated on pop. *)
    for s = nc - 1 downto 0 do
      stacks_push buckets acol.(s).clen s
    done;
    let cur = ref 0 in
    let nextid = ref 0 in
    let dropped = ref [] in
    (* Pending U rows: at pivot time the surviving entries of the pivot
       row are keyed by column {e slot}; they are scattered into the
       id-indexed U once every slot has its id.  Id [id]'s entries sit at
       [pend_at.(id) .. pend_at.(id + 1) - 1] in discovery order (ids
       are handed out in pivot order, so the segments are adjacent). *)
    let pend_used = ref 0 in
    let claim r id =
      f.ord.(id) <- id;
      f.id_at.(id) <- id;
      f.row_of.(id) <- r;
      f.id_of_row.(r) <- id;
      rowdone.(r) <- true
    in
    let l = f.l in
    let steps = ref 0 in
    while !steps < nc do
      let slot = ref (-1) in
      while !slot = -1 do
        if buckets.head.(!cur) < 0 then incr cur
        else begin
          let s = stacks_pop buckets !cur in
          if (not coldone.(s)) && acol.(s).clen = !cur then slot := s
        end
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
        (* L multipliers: the pivot column's entries off the pivot row,
           written straight into the op store. *)
        etas_reserve l c.clen;
        let l0 = l.ptr.(l.n) in
        let lcnt = ref 0 in
        let inv = 1.0 /. piv in
        for k = 0 to c.clen - 1 do
          let i = c.ci.(k) in
          if i <> r then begin
            l.idx.(l0 + !lcnt) <- i;
            l.vals.(l0 + !lcnt) <- c.cv.(k) *. inv;
            incr lcnt;
            rowcnt.(i) <- rowcnt.(i) - 1
          end
        done;
        let lcnt = !lcnt in
        rowcnt.(r) <- rowcnt.(r) - 1;
        if lcnt > 0 then etas_commit l r lcnt;
        cell_clear c;
        (* Extract the pivot row from the remaining active columns... *)
        pend_at.(id) <- !pend_used;
        while arow.head.(r) >= 0 do
          let s' = stacks_pop arow r in
          if (not coldone.(s')) && s' <> s then begin
            let cc = acol.(s') in
            let k = cell_find cc r in
            if k >= 0 then begin
              pend_push f !pend_used s' cc.cv.(k);
              incr pend_used;
              cell_delete cc k;
              let kc = cc.clen in
              stacks_push buckets kc s';
              if kc < !cur then cur := kc
            end
          end
        done;
        pend_at.(id + 1) <- !pend_used;
        (* ... and apply the rank-1 Schur update to each of them, most
           recently found first. *)
        if lcnt > 0 then
          for e = !pend_used - 1 downto pend_at.(id) do
            let s' = f.pend_slot.(e) and uv = f.pend_val.(e) in
            let cc = acol.(s') in
            for k = 0 to cc.clen - 1 do
              stamp.(cc.ci.(k)) <- s';
              wk.(cc.ci.(k)) <- cc.cv.(k)
            done;
            let nfill = ref 0 in
            for k = 0 to lcnt - 1 do
              let i = l.idx.(l0 + k) in
              let delta = l.vals.(l0 + k) *. uv in
              if stamp.(i) = s' then wk.(i) <- wk.(i) -. delta
              else begin
                stamp.(i) <- s';
                wk.(i) <- -.delta;
                fill.(!nfill) <- i;
                incr nfill
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
            for k = 0 to !nfill - 1 do
              let i = fill.(k) in
              if stamp.(i) = s' then begin
                let v = wk.(i) in
                stamp.(i) <- -1;
                if Float.abs v > 1e-14 then begin
                  cell_push cc i v;
                  stacks_push arow i s';
                  rowcnt.(i) <- rowcnt.(i) + 1
                end
              end
            done;
            let kc = cc.clen in
            stacks_push buckets kc s';
            if kc < !cur then cur := kc
          done
      end
    done;
    (* Unclaimed rows take their crash identity column: a singleton at
       its own row, so it pivots on itself with no fill and no L op. *)
    for r = 0 to m - 1 do
      if not rowdone.(r) then begin
        let id = !nextid in
        incr nextid;
        claim r id;
        let c = crash.(r) in
        let v = ref 0.0 in
        for k = a.colptr.(c) to a.colptr.(c + 1) - 1 do
          if a.rowidx.(k) = r then v := a.values.(k)
        done;
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
        let r = f.row_of.(id) in
        basis_out.(r) <- cols.(s);
        for e = pend_at.(id + 1) - 1 downto pend_at.(id) do
          let id' = id_of_slot.(f.pend_slot.(e)) in
          if id' >= 0 then begin
            let v = f.pend_val.(e) in
            cell_push f.ucols.(id') r v;
            cell_push f.urows.(r) id' v;
            f.unnz <- f.unnz + 1
          end
        done
      end
    done;
    !dropped

  let factorize ?tau (a : mat) ~targets ~crash ~basis_out =
    let f = create a.rows in
    let dropped = refactorize ?tau f a ~targets ~crash ~basis_out in
    (f, dropped)

  (* FTRAN: x := B⁻¹x.  Caches the post-L/H spike for a following
     {!update} — callers must FTRAN the entering column immediately
     before updating (the simplex pivot loop does). *)
  let ftran f x =
    let l = f.l in
    for k = 0 to l.n - 1 do
      let xr = x.(l.piv.(k)) in
      if xr <> 0.0 then
        for e = l.ptr.(k) to l.ptr.(k + 1) - 1 do
          x.(l.idx.(e)) <- x.(l.idx.(e)) -. (l.vals.(e) *. xr)
        done
    done;
    let h = f.h in
    for k = 0 to h.n - 1 do
      let p = h.piv.(k) in
      let acc = ref x.(p) in
      for e = h.ptr.(k) to h.ptr.(k + 1) - 1 do
        acc := !acc -. (h.vals.(e) *. x.(h.idx.(e)))
      done;
      x.(p) <- !acc
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
    let h = f.h in
    for k = h.n - 1 downto 0 do
      let yp = y.(h.piv.(k)) in
      if yp <> 0.0 then
        for e = h.ptr.(k) to h.ptr.(k + 1) - 1 do
          y.(h.idx.(e)) <- y.(h.idx.(e)) -. (h.vals.(e) *. yp)
        done
    done;
    let l = f.l in
    for k = l.n - 1 downto 0 do
      let p = l.piv.(k) in
      let acc = ref y.(p) in
      for e = l.ptr.(k) to l.ptr.(k + 1) - 1 do
        acc := !acc -. (l.vals.(e) *. y.(l.idx.(e)))
      done;
      y.(p) <- !acc
    done

  (* The update's elimination worklist: a binary min-heap of ids keyed by
     their (already shifted) ordinal. *)
  let heap_push f id =
    let h = f.heap in
    let key = f.ord.(id) in
    let k = ref f.hlen in
    f.hlen <- f.hlen + 1;
    while !k > 0 && f.ord.(h.((!k - 1) / 2)) > key do
      h.(!k) <- h.((!k - 1) / 2);
      k := (!k - 1) / 2
    done;
    h.(!k) <- id;
    f.queued.(id) <- true

  let heap_pop f =
    let h = f.heap in
    let top = h.(0) in
    f.hlen <- f.hlen - 1;
    let n = f.hlen in
    if n > 0 then begin
      let last = h.(n) in
      let key = f.ord.(last) in
      let k = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !k) + 1 in
        if l >= n then continue := false
        else begin
          let c = if l + 1 < n && f.ord.(h.(l + 1)) < f.ord.(h.(l)) then l + 1 else l in
          if f.ord.(h.(c)) < key then begin
            h.(!k) <- h.(c);
            k := c
          end
          else continue := false
        end
      done;
      h.(!k) <- last
    end;
    f.queued.(top) <- false;
    top

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
    (* Detach row rl of U (its entries seed the elimination accumulator)
       and delete column p. *)
    let ur = f.urows.(rl) in
    for k = 0 to ur.clen - 1 do
      f.rowacc.(ur.ci.(k)) <- ur.cv.(k);
      cell_remove f.ucols.(ur.ci.(k)) rl;
      f.unnz <- f.unnz - 1
    done;
    let uc = f.ucols.(p) in
    for k = 0 to uc.clen - 1 do
      cell_remove f.urows.(uc.ci.(k)) p;
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
       fill lands at strictly larger ordinals, so the heap drains.
       Multipliers accumulate into one row eta, written after the last
       H op and sealed only if the update is accepted. *)
    for k = 0 to ur.clen - 1 do
      heap_push f ur.ci.(k)
    done;
    cell_clear ur;
    let h = f.h in
    etas_reserve h 0;
    let h0 = h.ptr.(h.n) in
    let hcnt = ref 0 in
    let ok = ref true in
    while !ok && f.hlen > 0 do
      let j = heap_pop f in
      let mj = f.rowacc.(j) /. f.udiag.(j) in
      f.rowacc.(j) <- 0.0;
      if Float.abs mj > 1e-14 then begin
        if Float.abs mj > 1e8 then ok := false;
        let rj = f.row_of.(j) in
        if h0 + !hcnt = Array.length h.idx then etas_reserve h (!hcnt + 1);
        h.idx.(h0 + !hcnt) <- rj;
        h.vals.(h0 + !hcnt) <- mj;
        incr hcnt;
        let urj = f.urows.(rj) in
        for k = 0 to urj.clen - 1 do
          let id' = urj.ci.(k) in
          if not f.queued.(id') then heap_push f id';
          f.rowacc.(id') <- f.rowacc.(id') -. (mj *. urj.cv.(k))
        done
      end
    done;
    if not !ok then begin
      (* Leave the workspace clean; the factor itself is discarded. *)
      while f.hlen > 0 do
        f.rowacc.(heap_pop f) <- 0.0
      done;
      false
    end
    else begin
      (* New column p = (row eta)·spike: only the rl entry changes. *)
      let s = f.spike in
      let newdiag = ref s.(rl) in
      for k = 0 to !hcnt - 1 do
        newdiag := !newdiag -. (h.vals.(h0 + k) *. s.(h.idx.(h0 + k)))
      done;
      let smax = ref 0.0 in
      for i = 0 to f.m - 1 do
        let av = Float.abs s.(i) in
        if av > !smax then smax := av
      done;
      if Float.abs !newdiag < 1e-11 || Float.abs !newdiag < 1e-9 *. !smax then
        false
      else begin
        if !hcnt > 0 then etas_commit h rl !hcnt;
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
