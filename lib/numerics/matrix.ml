type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Matrix.create: dimensions must be positive";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let set m i j x = m.data.((i * m.cols) + j) <- x
let add_to m i j x = m.data.((i * m.cols) + j) <- m.data.((i * m.cols) + j) +. x

(* Resolve an entry to its backing array and flat offset, so static
   stamp patterns can be compiled once and applied with plain array
   writes in hot loops. *)
let slot m i j =
  if i < 0 || j < 0 || i >= m.rows || j >= m.cols then
    invalid_arg "Matrix.slot: out of range";
  (m.data, (i * m.cols) + j)

let of_arrays a =
  let r = Array.length a in
  if r = 0 then invalid_arg "Matrix.of_arrays: empty";
  let c = Array.length a.(0) in
  if c = 0 then invalid_arg "Matrix.of_arrays: empty row";
  let m = create r c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged";
      Array.iteri (fun j x -> set m i j x) row)
    a;
  m

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mul_vec: size mismatch";
  Array.init m.rows (fun i ->
      let s = ref 0.0 in
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        s := !s +. (m.data.(base + j) *. v.(j))
      done;
      !s)

exception Singular of int

let pivot_eps = 1e-300

let blit src dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    invalid_arg "Matrix.blit: shape mismatch";
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

(* Preallocated, reusable factorization workspace. Row exchanges are
   recorded as successive swaps (LAPACK ipiv style) so the permutation
   can be applied to a right-hand side in place. Every factorization
   also records where its factors are non-zero. U sits in [fdata] on
   and right of the diagonal, and row i's non-zeros right of the
   diagonal are in the columns [fucols.(fuptr.(i)) ..
   fucols.(fuptr.(i + 1) - 1)], ascending. L is kept by column: column
   k's non-zero multipliers are [flvals.(flptr.(k)) ..], each with the
   row it was computed for while column k was eliminated ([flrows]), in
   ascending row order. *)
type fact = {
  fn : int;
  fdata : float array;
  fipiv : int array;
  fucols : int array;
  fuptr : int array;
  flrows : int array;
  flvals : float array;
  flptr : int array;
}

let fact_create n =
  if n <= 0 then invalid_arg "Matrix.fact_create: size must be positive";
  let half = max 1 (n * (n - 1) / 2) in
  {
    fn = n;
    fdata = Array.make (n * n) 0.0;
    fipiv = Array.make n 0;
    fucols = Array.make half 0;
    fuptr = Array.make (n + 1) 0;
    flrows = Array.make half 0;
    flvals = Array.make half 0.0;
    flptr = Array.make (n + 1) 0;
  }

(* Doolittle LU with partial pivoting. Eliminating column k subtracts
   fmul * a(k, j) from a(i, j) for every row i > k and column j > k.
   Where the pivot-row entry a(k, j) is zero that leaves a(i, j) as it
   was, up to the sign of a zero, so only the columns where the pivot
   row is non-zero are updated. MNA rows are mostly zeros: the skip
   keeps every non-zero result of the full loop and does a fraction of
   its work. A row is final once it has served as the pivot row, so
   the columns gathered for the update are U's non-zeros in that row.
   The non-zero multipliers go to column k's L list as they are
   computed; nothing left of column k is read again, so a row exchange
   moves only columns k and up. *)
let factor_into m f =
  if m.rows <> m.cols then invalid_arg "Matrix.factor_into: not square";
  if m.rows <> f.fn then invalid_arg "Matrix.factor_into: size mismatch";
  let n = f.fn in
  let a = f.fdata in
  let ucols = f.fucols and uptr = f.fuptr in
  let lrows = f.flrows and lvals = f.flvals and lptr = f.flptr in
  Array.blit m.data 0 a 0 (n * n);
  uptr.(0) <- 0;
  lptr.(0) <- 0;
  for k = 0 to n - 1 do
    let pmax = ref (abs_float a.((k * n) + k)) in
    let prow = ref k in
    for i = k + 1 to n - 1 do
      let v = abs_float a.((i * n) + k) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax < pivot_eps then raise (Singular k);
    f.fipiv.(k) <- !prow;
    if !prow <> k then begin
      let p = !prow in
      for j = k to n - 1 do
        let tmp = a.((k * n) + j) in
        a.((k * n) + j) <- a.((p * n) + j);
        a.((p * n) + j) <- tmp
      done
    end;
    let kb = k * n in
    let akk = a.(kb + k) in
    (* Unsafe accesses in the O(n^3) update: rows and columns stay in
       [0, n) by construction, and column k adds at most n - 1 - k
       entries to each list, so neither passes n (n - 1) / 2. *)
    let u0 = Array.unsafe_get uptr k in
    let nu = ref u0 in
    for j = k + 1 to n - 1 do
      if Array.unsafe_get a (kb + j) <> 0.0 then begin
        Array.unsafe_set ucols !nu j;
        incr nu
      end
    done;
    let u1 = !nu in
    Array.unsafe_set uptr (k + 1) u1;
    let nl = ref (Array.unsafe_get lptr k) in
    for i = k + 1 to n - 1 do
      let ib = i * n in
      let fmul = Array.unsafe_get a (ib + k) /. akk in
      if fmul <> 0.0 then begin
        Array.unsafe_set lrows !nl i;
        Array.unsafe_set lvals !nl fmul;
        incr nl;
        for c = u0 to u1 - 1 do
          let j = Array.unsafe_get ucols c in
          Array.unsafe_set a (ib + j)
            (Array.unsafe_get a (ib + j)
            -. (fmul *. Array.unsafe_get a (kb + j)))
        done
      end
    done;
    Array.unsafe_set lptr (k + 1) !nl
  done

(* Forward and back substitution over the recorded non-zeros only. A
   skipped term is s - 0 * b(j), which leaves s as it was up to the
   sign of a zero. The forward pass replays the elimination: row
   exchange k, then column k's multipliers. Each entry of [b] moves
   with its row and takes its non-zero terms in the order of the dense
   row-by-row loop, so every non-zero result is the dense loop's. *)
let solve_into f b =
  let n = f.fn in
  if Array.length b <> n then invalid_arg "Matrix.solve_into: size mismatch";
  let a = f.fdata in
  let lrows = f.flrows and lvals = f.flvals and lptr = f.flptr in
  (* Unsafe accesses: [b] length was checked against [n] above, and
     the recorded rows and columns lie in [0, n). *)
  for k = 0 to n - 1 do
    let p = Array.unsafe_get f.fipiv k in
    if p <> k then begin
      let tmp = Array.unsafe_get b k in
      Array.unsafe_set b k (Array.unsafe_get b p);
      Array.unsafe_set b p tmp
    end;
    let bk = Array.unsafe_get b k in
    for c = Array.unsafe_get lptr k to Array.unsafe_get lptr (k + 1) - 1 do
      let i = Array.unsafe_get lrows c in
      Array.unsafe_set b i
        (Array.unsafe_get b i -. (Array.unsafe_get lvals c *. bk))
    done
  done;
  let ucols = f.fucols and uptr = f.fuptr in
  for i = n - 1 downto 0 do
    let ib = i * n in
    let s = ref (Array.unsafe_get b i) in
    for c = Array.unsafe_get uptr i to Array.unsafe_get uptr (i + 1) - 1 do
      let j = Array.unsafe_get ucols c in
      s := !s -. (Array.unsafe_get a (ib + j) *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!s /. Array.unsafe_get a (ib + i))
  done
