(* Band storage follows LAPACK's general-band convention: column j is
   contiguous, entry (i, j) lives at row offset [kl + ku + i - j], and
   the top [kl] rows of each column are fill space for the extra
   superdiagonals that partial pivoting can create during
   factorization. Keeping the fill rows in the unfactored matrix too
   costs a little memory but lets [factor_into] start from a single
   [Array.blit]. *)

type t = { n : int; kl : int; ku : int; ldab : int; data : float array }

let pivot_eps = 1e-300

let create ~n ~kl ~ku =
  if n <= 0 then invalid_arg "Banded.create: size must be positive";
  if kl < 0 || ku < 0 then invalid_arg "Banded.create: negative bandwidth";
  let kl = min kl (n - 1) and ku = min ku (n - 1) in
  let ldab = (2 * kl) + ku + 1 in
  { n; kl; ku; ldab; data = Array.make (n * ldab) 0.0 }

let in_band t i j = j - i <= t.ku && i - j <= t.kl
let index t i j = (j * t.ldab) + t.kl + t.ku + i - j

let check_pos t i j name =
  if i < 0 || j < 0 || i >= t.n || j >= t.n then invalid_arg name

let get t i j =
  check_pos t i j "Banded.get: out of range";
  if in_band t i j then t.data.(index t i j) else 0.0

let add_to t i j x =
  check_pos t i j "Banded.add_to: out of range";
  if not (in_band t i j) then invalid_arg "Banded.add_to: outside band";
  let k = index t i j in
  t.data.(k) <- t.data.(k) +. x

(* Backing array + flat offset of an in-band entry, for compiling
   static stamp patterns (see [Matrix.slot]). *)
let slot t i j =
  check_pos t i j "Banded.slot: out of range";
  if not (in_band t i j) then invalid_arg "Banded.slot: outside band";
  (t.data, index t i j)

let fill t x = Array.fill t.data 0 (Array.length t.data) x

let blit src dst =
  if src.n <> dst.n || src.kl <> dst.kl || src.ku <> dst.ku then
    invalid_arg "Banded.blit: shape mismatch";
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let to_dense t =
  let m = Matrix.create t.n t.n in
  for j = 0 to t.n - 1 do
    for i = max 0 (j - t.ku) to min (t.n - 1) (j + t.kl) do
      Matrix.set m i j t.data.(index t i j)
    done
  done;
  m

type fact = {
  fn : int;
  fkl : int;
  fku : int;
  fldab : int;
  fdata : float array;
  ipiv : int array;
}

let fact_create t =
  {
    fn = t.n;
    fkl = t.kl;
    fku = t.ku;
    fldab = t.ldab;
    fdata = Array.make (Array.length t.data) 0.0;
    ipiv = Array.make t.n 0;
  }

(* Gaussian elimination with partial pivoting confined to the band
   (LAPACK dgbtf2): the pivot search only looks at the [kl] rows below
   the diagonal, and row exchanges widen U's bandwidth to at most
   [kl + ku]. *)
let factor_into t f =
  if f.fn <> t.n || f.fkl <> t.kl || f.fku <> t.ku then
    invalid_arg "Banded.factor_into: shape mismatch";
  Array.blit t.data 0 f.fdata 0 (Array.length t.data);
  let n = t.n and kl = t.kl and ldab = t.ldab in
  let kv = kl + t.ku in
  let a = f.fdata in
  (* Inner loops use unsafe accesses: every offset is inside the
     [n * ldab] allocation by the band invariants checked above. *)
  for j = 0 to n - 1 do
    let jmax = min (n - 1) (j + kl) in
    let base = (j * ldab) + kv in
    let pmax = ref (abs_float (Array.unsafe_get a base)) in
    let prow = ref j in
    for i = j + 1 to jmax do
      let v = abs_float (Array.unsafe_get a (base + i - j)) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax < pivot_eps then raise (Matrix.Singular j);
    f.ipiv.(j) <- !prow;
    let cmax = min (n - 1) (j + kv) in
    let p = !prow in
    if p <> j then
      for c = j to cmax do
        let cb = (c * ldab) + kv - c in
        let tmp = Array.unsafe_get a (cb + j) in
        Array.unsafe_set a (cb + j) (Array.unsafe_get a (cb + p));
        Array.unsafe_set a (cb + p) tmp
      done;
    let piv = Array.unsafe_get a base in
    for i = j + 1 to jmax do
      Array.unsafe_set a (base + i - j)
        (Array.unsafe_get a (base + i - j) /. piv)
    done;
    (* Right-looking update, column-outer so each column's base offset
       is computed once and the inner loop walks contiguous memory. *)
    for c = j + 1 to cmax do
      let cb = (c * ldab) + kv - c in
      let ajc = Array.unsafe_get a (cb + j) in
      if ajc <> 0.0 then
        for i = j + 1 to jmax do
          Array.unsafe_set a (cb + i)
            (Array.unsafe_get a (cb + i)
            -. (Array.unsafe_get a (base + i - j) *. ajc))
        done
    done
  done

let solve_into f ?(pos = 0) b =
  let n = f.fn and kl = f.fkl and ldab = f.fldab in
  let kv = kl + f.fku in
  if pos < 0 || pos + n > Array.length b then
    invalid_arg "Banded.solve_into: size mismatch";
  let a = f.fdata in
  (* Unsafe accesses: [pos .. pos + n - 1] was range-checked above and
     matrix offsets are in-band by construction. *)
  (* Forward: replay the row exchanges, then unit-lower substitution. *)
  for j = 0 to n - 1 do
    let p = f.ipiv.(j) in
    if p <> j then begin
      let tmp = Array.unsafe_get b (pos + j) in
      Array.unsafe_set b (pos + j) (Array.unsafe_get b (pos + p));
      Array.unsafe_set b (pos + p) tmp
    end;
    let bj = Array.unsafe_get b (pos + j) in
    if bj <> 0.0 then begin
      let base = (j * ldab) + kv - j in
      for i = j + 1 to min (n - 1) (j + kl) do
        Array.unsafe_set b (pos + i)
          (Array.unsafe_get b (pos + i)
          -. (Array.unsafe_get a (base + i) *. bj))
      done
    end
  done;
  (* Back substitution; U's bandwidth is kl + ku after pivoting. *)
  for j = n - 1 downto 0 do
    let base = (j * ldab) + kv - j in
    let xj = Array.unsafe_get b (pos + j) /. Array.unsafe_get a (base + j) in
    Array.unsafe_set b (pos + j) xj;
    if xj <> 0.0 then
      for i = max 0 (j - kv) to j - 1 do
        Array.unsafe_set b (pos + i)
          (Array.unsafe_get b (pos + i)
          -. (Array.unsafe_get a (base + i) *. xj))
      done
  done

let solve t b =
  if Array.length b <> t.n then invalid_arg "Banded.solve: size mismatch";
  let f = fact_create t in
  factor_into t f;
  let x = Array.copy b in
  solve_into f x;
  x
