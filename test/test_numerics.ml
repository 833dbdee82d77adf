open Helpers
open Numerics

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)

let test_identity_solve () =
  let a = Matrix.create 4 4 in
  for i = 0 to 3 do
    Matrix.set a i i 1.0
  done;
  let b = [| 1.0; -2.0; 3.5; 0.25 |] in
  let x = dense_solve a b in
  Array.iteri (fun i bi -> approx "identity" bi x.(i)) b

let test_known_2x2 () =
  (* [2 1; 1 3] x = [5; 10] -> x = [1; 3] *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = dense_solve a [| 5.0; 10.0 |] in
  approx "x0" 1.0 x.(0);
  approx "x1" 3.0 x.(1)

let test_pivoting_needed () =
  (* Leading zero forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = dense_solve a [| 2.0; 7.0 |] in
  approx "x0" 7.0 x.(0);
  approx "x1" 2.0 x.(1)

let test_singular_detected () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match dense_solve a [| 1.0; 2.0 |] with
  | exception Matrix.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_residual () =
  let a = Matrix.of_arrays [| [| 3.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let b = [| 9.0; 8.0 |] in
  let x = dense_solve a b in
  check_true "small residual" (residual_norm a x b < 1e-12)

let test_random_solve_residual () =
  (* 30 deterministic random systems: LU solve leaves tiny residual. *)
  for seed = 1 to 30 do
    let n = 3 + (seed mod 8) in
    let data = lcg_array seed (n * n) (-5.0) 5.0 in
    let a = Matrix.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Matrix.set a i j data.((i * n) + j)
      done;
      (* Diagonal dominance keeps the system comfortably regular. *)
      Matrix.add_to a i i 20.0
    done;
    let b = lcg_array (seed * 77) n (-10.0) 10.0 in
    let x = dense_solve a b in
    check_true "residual" (residual_norm a x b < 1e-9)
  done

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Matrix.mul_vec a [| 1.0; 1.0 |] in
  approx "y0" 3.0 y.(0);
  approx "y1" 7.0 y.(1)

let test_transpose_mul () =
  (* A^T built from A's rows: mul_vec honours the adjoint identity
     y.(A x) = (A^T y).x, and A^T A applied column by column is
     symmetric. *)
  let rows = [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 1.0; 4.0 |] |] in
  let a = Matrix.of_arrays rows in
  let at =
    Matrix.of_arrays (Array.init 3 (fun j -> Array.init 2 (fun i -> rows.(i).(j))))
  in
  let dot u v =
    let s = ref 0.0 in
    Array.iteri (fun i ui -> s := !s +. (ui *. v.(i))) u;
    !s
  in
  approx "at(1,0)" 2.0 (Matrix.mul_vec at [| 1.0; 0.0 |]).(1);
  let x = [| 0.5; -1.0; 2.0 |] and y = [| 3.0; -0.25 |] in
  approx ~eps:1e-12 "adjoint" (dot y (Matrix.mul_vec a x))
    (dot (Matrix.mul_vec at y) x);
  let ata_col j =
    Matrix.mul_vec at
      (Matrix.mul_vec a (Array.init 3 (fun k -> if k = j then 1.0 else 0.0)))
  in
  Alcotest.(check int) "ata square" 3 (Array.length (ata_col 0));
  for i = 0 to 2 do
    for j = 0 to 2 do
      approx "symmetry" (ata_col j).(i) (ata_col i).(j)
    done
  done

let test_bad_dims () =
  Alcotest.check_raises "create" (Invalid_argument
    "Matrix.create: dimensions must be positive") (fun () ->
      ignore (Matrix.create 0 3));
  let a = Matrix.create 2 2 in
  Alcotest.check_raises "mul_vec"
    (Invalid_argument "Matrix.mul_vec: size mismatch") (fun () ->
      ignore (Matrix.mul_vec a [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Matrix: preallocated workspace (factor_into / solve_into)           *)

let test_fact_reusable () =
  (* One workspace, two different systems in sequence. *)
  let f = Matrix.fact_create 2 in
  let a1 = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  Matrix.factor_into a1 f;
  let x = [| 2.0; 8.0 |] in
  Matrix.solve_into f x;
  approx "first" 1.0 x.(0);
  approx "first" 2.0 x.(1);
  let a2 = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Matrix.factor_into a2 f;
  let y = [| 3.0; 5.0 |] in
  Matrix.solve_into f y;
  approx "pivoted" 5.0 y.(0);
  approx "pivoted" 3.0 y.(1)

let test_fact_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let f = Matrix.fact_create 2 in
  match Matrix.factor_into a f with
  | exception Matrix.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

(* ------------------------------------------------------------------ *)
(* Matrix: a textbook reference for the workspace LU                   *)

(* Partial-pivoting Doolittle LU that updates every column right of
   the diagonal and substitutes over every entry of L and U: the
   library kernel without its skips of zero entries, with the same
   pivot choice, singularity threshold and operation order. Solves [a x = b] for the n x n row-major [a], or
   raises [Matrix.Singular k] as the kernel does. *)
let textbook_solve n a b =
  let a = Array.copy a and x = Array.copy b in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if abs_float a.((i * n) + k) > abs_float a.((!p * n) + k) then p := i
    done;
    if abs_float a.((!p * n) + k) < 1e-300 then raise (Matrix.Singular k);
    let p = !p in
    if p <> k then begin
      for j = 0 to n - 1 do
        let t = a.((k * n) + j) in
        a.((k * n) + j) <- a.((p * n) + j);
        a.((p * n) + j) <- t
      done;
      let t = x.(k) in
      x.(k) <- x.(p);
      x.(p) <- t
    end;
    let akk = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let f = a.((i * n) + k) /. akk in
      a.((i * n) + k) <- f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k * n) + j))
        done
    done
  done;
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done;
  x

(* A random n x n system with structural zeros of both signs. Each
   entry is zero with probability [zeros] percent; rows marked lower
   (with probability [lower] percent, or all of them, shuffled, when
   [shuffle]) are zero right of the diagonal, so pivot rows with no
   entry right of the diagonal occur. [ints] draws small integers,
   whose exact cancellations make zeros during elimination too. [diag]
   adds a dominant diagonal; without it many draws are singular. *)
let sparse_system (n, seed, (zeros, lower), (ints, diag, shuffle)) =
  let st = Random.State.make [| seed |] in
  let zero () = if Random.State.bool st then 0.0 else -0.0 in
  let value () =
    if ints then float_of_int (Random.State.int st 7 - 3)
    else Random.State.float st 10.0 -. 5.0
  in
  let is_lower =
    Array.init n (fun _ -> shuffle || Random.State.int st 100 < lower)
  in
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.((i * n) + j) <-
        (if (j > i && is_lower.(i)) || Random.State.int st 100 < zeros then
           zero ()
         else value ());
      if diag && i = j then a.((i * n) + j) <- a.((i * n) + j) +. 40.0
    done
  done;
  if shuffle then
    for i = n - 1 downto 1 do
      let r = Random.State.int st (i + 1) in
      for j = 0 to n - 1 do
        let t = a.((i * n) + j) in
        a.((i * n) + j) <- a.((r * n) + j);
        a.((r * n) + j) <- t
      done
    done;
  let b =
    Array.init n (fun _ ->
        if Random.State.int st 100 < zeros then zero () else value ())
  in
  (a, b)

(* A system, then the seed and (zeros, lower) percentages of a second
   system of the same size and kind, and whether the first gets a zero
   column so its factorization raises [Singular] part way. *)
let gen_sparse_system =
  QCheck2.Gen.(
    pair
      (tup4 (int_range 1 40) (int_range 0 1_000_000)
         (pair (int_range 0 95) (int_range 0 100))
         (triple bool bool bool))
      (triple (int_range 0 1_000_000)
         (pair (int_range 0 95) (int_range 0 100))
         bool))

(* Both systems go through one workspace, so the second solve must not
   reuse where the first system's factors were non-zero, whether that
   factorization finished or stopped at a singular column. Under
   [Float.equal], which equates 0.0 and -0.0: the skips may flip the
   sign of a zero and nothing else. *)
let kernel_matches_textbook
    (((n, _, _, kind) as spec), (seed2, sparsity2, singular_first)) =
  let f = Matrix.fact_create n in
  let agree (a, b) =
    let kernel () =
      let m = Matrix.create n n in
      Array.iteri (fun k v -> Matrix.set m (k / n) (k mod n) v) a;
      Matrix.factor_into m f;
      let x = Array.copy b in
      Matrix.solve_into f x;
      x
    in
    match textbook_solve n a b with
    | exception Matrix.Singular k -> (
        match kernel () with
        | exception Matrix.Singular k' -> k = k'
        | _ -> false)
    | x -> (
        match kernel () with
        | exception Matrix.Singular _ -> false
        | y -> Array.for_all2 Float.equal x y)
  in
  let a, b = sparse_system spec in
  if singular_first then
    for i = 0 to n - 1 do
      a.((i * n) + (seed2 mod n)) <- 0.0
    done;
  agree (a, b) && agree (sparse_system (n, seed2, sparsity2, kind))

(* ------------------------------------------------------------------ *)
(* Tridiagonal systems: the shape of an RC ladder's nodal matrix.      *)

let tridiag ~lower ~diag ~upper =
  let n = Array.length diag in
  let a = Matrix.create n n in
  Array.iteri (fun i d -> Matrix.set a i i d) diag;
  Array.iteri (fun i l -> Matrix.set a (i + 1) i l) lower;
  Array.iteri (fun i u -> Matrix.set a i (i + 1) u) upper;
  a

(* The Thomas algorithm, an independent tridiagonal solver. *)
let thomas ~lower ~diag ~upper rhs =
  let n = Array.length diag in
  let c = Array.make n 0.0 and d = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let l = if i > 0 then lower.(i - 1) else 0.0 in
    let den = diag.(i) -. (if i > 0 then l *. c.(i - 1) else 0.0) in
    if i < n - 1 then c.(i) <- upper.(i) /. den;
    d.(i) <- (rhs.(i) -. (if i > 0 then l *. d.(i - 1) else 0.0)) /. den
  done;
  for i = n - 2 downto 0 do
    d.(i) <- d.(i) -. (c.(i) *. d.(i + 1))
  done;
  d

let test_tridiag_vs_dense () =
  for seed = 1 to 10 do
    let n = 2 + (seed mod 7) in
    let diag = lcg_array seed n 5.0 10.0 in
    let lower = lcg_array (seed + 100) (n - 1) (-1.0) 1.0 in
    let upper = lcg_array (seed + 200) (n - 1) (-1.0) 1.0 in
    let rhs = lcg_array (seed + 300) n (-3.0) 3.0 in
    let x = dense_solve (tridiag ~lower ~diag ~upper) rhs in
    let xt = thomas ~lower ~diag ~upper rhs in
    Array.iteri (fun i v -> approx ~eps:1e-9 "tridiag" v x.(i)) xt
  done

let test_tridiag_size_checks () =
  let a = tridiag ~lower:[| 1.0 |] ~diag:[| 4.0; 4.0 |] ~upper:[| 1.0 |] in
  Alcotest.check_raises "factor mismatch"
    (Invalid_argument "Matrix.factor_into: size mismatch") (fun () ->
      Matrix.factor_into a (Matrix.fact_create 3));
  let f = Matrix.fact_create 2 in
  Matrix.factor_into a f;
  Alcotest.check_raises "solve mismatch"
    (Invalid_argument "Matrix.solve_into: size mismatch") (fun () ->
      Matrix.solve_into f [| 1.0 |])

let test_tridiag_single () =
  let x = dense_solve (tridiag ~lower:[||] ~diag:[| 4.0 |] ~upper:[||]) [| 8.0 |] in
  approx "single" 2.0 x.(0)

(* ------------------------------------------------------------------ *)
(* Interp                                                              *)

let test_linear_at_nodes () =
  let xs = [| 0.0; 1.0; 3.0 |] and ys = [| 1.0; 5.0; -2.0 |] in
  Array.iteri (fun i x -> approx "node" ys.(i) (Interp.linear xs ys x)) xs

let test_linear_midpoint () =
  approx "mid" 3.0 (Interp.linear [| 0.0; 1.0 |] [| 1.0; 5.0 |] 0.5)

let test_linear_extrapolates () =
  approx "extrap" 9.0 (Interp.linear [| 0.0; 1.0 |] [| 1.0; 5.0 |] 2.0)

let test_clamped () =
  (* Waveform lookups hold the end values outside the sampled span. *)
  let w = Waveform.Wave.create [| 0.0; 1.0 |] [| 1.0; 5.0 |] in
  approx "clamp hi" 5.0 (Waveform.Wave.value_at w 2.0);
  approx "clamp lo" 1.0 (Waveform.Wave.value_at w (-1.0))

let test_bilinear () =
  let xs = [| 0.0; 1.0 |] and ys = [| 0.0; 2.0 |] in
  let z = [| [| 0.0; 2.0 |]; [| 4.0; 6.0 |] |] in
  approx "corner" 0.0 (Interp.bilinear xs ys z 0.0 0.0);
  approx "corner2" 6.0 (Interp.bilinear xs ys z 1.0 2.0);
  approx "center" 3.0 (Interp.bilinear xs ys z 0.5 1.0);
  (* clamped outside *)
  approx "outside" 6.0 (Interp.bilinear xs ys z 3.0 9.0)

let test_inverse_linear () =
  let w = Waveform.Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 2.0; 0.0 |] in
  (match Waveform.Wave.first_crossing w 1.0 with
  | Some x -> approx "first crossing" 0.5 x
  | None -> Alcotest.fail "expected crossing");
  check_true "no crossing" (Waveform.Wave.first_crossing w 5.0 = None)

let test_derivative_linear_fn () =
  let xs = Array.init 11 (fun i -> float_of_int i /. 10.0) in
  let ys = Array.map (fun x -> (3.0 *. x) +. 1.0) xs in
  Array.iter (fun d -> approx ~eps:1e-9 "slope" 3.0 d) (Interp.derivative xs ys)

let test_bracket_bad_grid () =
  (* [Interp] trusts its grids; they are checked where they enter. *)
  Alcotest.check_raises "dup resample grid"
    (Invalid_argument "Wave.resample: grid must be strictly increasing")
    (fun () ->
      let w = Waveform.Wave.create [| 0.0; 1.0 |] [| 0.0; 1.0 |] in
      ignore (Waveform.Wave.resample w [| 0.0; 0.0; 1.0 |]));
  Alcotest.check_raises "dup table index"
    (Invalid_argument "Nldm.table: slews must be strictly increasing")
    (fun () ->
      ignore
        (Liberty.Nldm.table ~slews:[| 0.0; 0.0; 1.0 |] ~loads:[| 1.0; 2.0 |]
           ~values:(Array.make 3 [| 0.0; 0.0 |])))

(* ------------------------------------------------------------------ *)
(* Lsq                                                                 *)

let test_fit_exact_line () =
  let ts = Array.init 20 (fun i -> float_of_int i) in
  let vs = Array.map (fun t -> (2.5 *. t) -. 4.0) ts in
  let l = Lsq.fit_line ts vs in
  approx ~eps:1e-9 "slope" 2.5 l.Lsq.slope;
  approx ~eps:1e-9 "intercept" (-4.0) l.Lsq.intercept

let test_fit_weighted_ignores_outlier () =
  let ts = [| 0.0; 1.0; 2.0; 3.0 |] in
  let vs = [| 0.0; 1.0; 2.0; 100.0 |] in
  let weights = [| 1.0; 1.0; 1.0; 0.0 |] in
  let l = Lsq.fit_line ~weights ts vs in
  approx ~eps:1e-9 "slope" 1.0 l.Lsq.slope;
  approx ~eps:1e-9 "intercept" 0.0 l.Lsq.intercept

let test_fit_through_point () =
  (* A dominant weight pins the fit to its sample: the weighted fit
     tends to the least-squares line constrained through (0, 0), whose
     slope is sum(t v) / sum(t^2) over the other samples. *)
  let ts = [| 0.0; 1.0; 2.0; 3.0 |] and vs = [| 0.0; 2.3; 3.9; 6.2 |] in
  let weights = [| 1e9; 1.0; 1.0; 1.0 |] in
  let l = Lsq.fit_line ~weights ts vs in
  approx ~eps:1e-6 "slope" (28.7 /. 14.0) l.Lsq.slope;
  approx ~eps:1e-6 "through origin" 0.0 l.Lsq.intercept

let test_fit_degenerate () =
  match Lsq.fit_line [| 1.0; 1.0 |] [| 0.0; 2.0 |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected degenerate failure"

(* A line a*x + b through (xs, ys) as [Lsq.gauss_newton] sees it: residuals
   (a*x + b) - y with Jacobian rows (x, 1). *)
let line_problem xs ys =
  let residual a b i = ((a *. xs.(i)) +. b) -. ys.(i) in
  let cost a b =
    let c = ref 0.0 in
    Array.iteri
      (fun i _ ->
        let r = residual a b i in
        c := !c +. (r *. r))
      xs;
    !c
  in
  let normal a b =
    let sxx = ref 0.0 and sx = ref 0.0 and sxr = ref 0.0 and sr = ref 0.0 in
    Array.iteri
      (fun i x ->
        let r = residual a b i in
        sxx := !sxx +. (x *. x);
        sx := !sx +. x;
        sxr := !sxr +. (x *. r);
        sr := !sr +. r)
      xs;
    Lsq.
      {
        a00 = !sxx;
        a01 = !sx;
        a11 = float_of_int (Array.length xs);
        g0 = -. !sxr;
        g1 = -. !sr;
      }
  in
  (cost, normal)

let test_gauss_newton_quadratic () =
  (* Fit y = a*x + b to exact data by minimizing the residual directly:
     GN should land on the analytic answer in a couple of steps. *)
  let xs = Array.init 10 (fun i -> float_of_int i /. 3.0) in
  let ys = Array.map (fun x -> (1.7 *. x) +. 0.3) xs in
  let cost, normal = line_problem xs ys in
  let a, b = Lsq.gauss_newton ~cost ~normal (0.0, 0.0) in
  approx ~eps:1e-6 "a" 1.7 a;
  approx ~eps:1e-6 "b" 0.3 b

let test_gauss_newton_nonlinear () =
  (* Minimize (a^2 - 4)^2 + (b - 1)^2: minima at a = +-2; starting at
     a = 1 converges to 2. *)
  let cost a b =
    let r0 = (a *. a) -. 4.0 and r1 = b -. 1.0 in
    (r0 *. r0) +. (r1 *. r1)
  in
  let normal a b =
    Lsq.
      {
        a00 = 4.0 *. a *. a;
        a01 = 0.0;
        a11 = 1.0;
        g0 = -2.0 *. a *. ((a *. a) -. 4.0);
        g1 = -.(b -. 1.0);
      }
  in
  let a, b = Lsq.gauss_newton ~cost ~normal (1.0, 0.0) in
  approx ~eps:1e-5 "root" 2.0 a;
  approx ~eps:1e-5 "linear part" 1.0 b

let test_gauss_newton_never_worse () =
  (* Even from a bad start the returned cost never exceeds the seed's. *)
  let xs = lcg_array 5 15 0.0 1.0 in
  let ys = lcg_array 6 15 (-1.0) 1.0 in
  let cost, normal = line_problem xs ys in
  let a, b = Lsq.gauss_newton ~cost ~normal (100.0, -50.0) in
  check_true "improved" (cost a b <= cost 100.0 (-50.0))

(* ------------------------------------------------------------------ *)
(* Roots                                                               *)

let test_brent_cubic () =
  let f x = (x *. x *. x) -. x -. 2.0 in
  let r = Roots.brent f 1.0 2.0 in
  approx ~eps:1e-9 "f(r)=0" 0.0 (f r)

let test_brent_endpoint_root () =
  approx "exact endpoint" 1.0 (Roots.brent (fun x -> x -. 1.0) 1.0 2.0)

let test_no_sign_change () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Roots.brent: no sign change") (fun () ->
      ignore (Roots.brent (fun x -> (x *. x) +. 1.0) 0.0 1.0))

let test_find_bracket () =
  match Roots.find_bracket (fun x -> x -. 0.35) ~lo:0.0 ~hi:1.0 ~steps:10 with
  | Some (a, b) ->
      check_true "bracket contains root" (a <= 0.35 && 0.35 <= b)
  | None -> Alcotest.fail "expected bracket"

let test_find_bracket_none () =
  check_true "none"
    (Roots.find_bracket (fun _ -> 1.0) ~lo:0.0 ~hi:1.0 ~steps:4 = None)

(* ------------------------------------------------------------------ *)
(* Integrate                                                           *)

let test_trapz_linear_exact () =
  let xs = [| 0.0; 0.5; 2.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  (* integral of 2x+1 on [0,2] = 4 + 2 = 6, exact for trapezoids *)
  approx ~eps:1e-12 "linear" 6.0 (Integrate.trapz xs ys)

let uniform_samples n f a b =
  let xs = Array.init (n + 1) (fun i -> a +. ((b -. a) *. float_of_int i /. float_of_int n)) in
  (xs, Array.map f xs)

let test_simpson_cubic_exact () =
  (* Simpson's rule is the Richardson extrapolation of two trapezoid
     sums, (4 T(h/2) - T(h)) / 3, and integrates cubics exactly:
     x^3 on [0,2] = 4. *)
  let t n =
    let xs, ys = uniform_samples n (fun x -> x ** 3.0) 0.0 2.0 in
    Integrate.trapz xs ys
  in
  approx ~eps:1e-9 "cubic" 4.0 (((4.0 *. t 8) -. t 4) /. 3.0)

let test_trapz_fn_converges () =
  let exact = 1.0 -. cos 1.0 in
  let xs, ys = uniform_samples 2000 sin 0.0 1.0 in
  approx ~eps:1e-5 "sin" exact (Integrate.trapz xs ys)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_summarize () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  approx "mean" 2.5 (Stats.mean xs);
  approx "max" 4.0 (Stats.percentile xs 100.0);
  approx "min" 1.0 (Stats.percentile xs 0.0);
  approx "max_abs" 4.0 (Stats.max_abs xs);
  approx ~eps:1e-12 "rms" (sqrt 7.5)
    (sqrt (Stats.mean (Array.map (fun x -> x *. x) xs)))

let test_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  approx "median" 2.5 (Stats.percentile xs 50.0);
  approx "p0" 1.0 (Stats.percentile xs 0.0);
  approx "p100" 4.0 (Stats.percentile xs 100.0)

let test_percentile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile xs 50.0);
  approx "unchanged" 3.0 xs.(0)

let test_max_abs () =
  approx "max_abs" 5.0 (Stats.max_abs [| -5.0; 3.0; 1.0 |])

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile [||] 50.0))

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    qcase "interp: value at a grid node is exact"
      QCheck2.Gen.(array_size (int_range 2 20) (float_bound_exclusive 100.0))
      (fun ys ->
        QCheck2.assume (Array.length ys >= 2);
        let xs = Array.init (Array.length ys) float_of_int in
        let i = Array.length ys / 2 in
        abs_float (Interp.linear xs ys xs.(i) -. ys.(i)) < 1e-9);
    qcase "lsq: exact line is recovered from noisy-free samples"
      QCheck2.Gen.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
      (fun (a, b) ->
        QCheck2.assume (abs_float a > 1e-6);
        let ts = Array.init 12 (fun i -> float_of_int i /. 4.0) in
        let vs = Array.map (fun t -> (a *. t) +. b) ts in
        let l = Lsq.fit_line ts vs in
        abs_float (l.Lsq.slope -. a) < 1e-6 *. (1.0 +. abs_float a)
        && abs_float (l.Lsq.intercept -. b) < 1e-6 *. (1.0 +. abs_float b));
    qcase "roots: brent finds a root of a random monotone cubic"
      QCheck2.Gen.(float_range 0.1 10.0)
      (fun k ->
        let f x = (x *. x *. x) +. (k *. x) -. 5.0 in
        let r = Roots.brent f (-10.0) 10.0 in
        abs_float (f r) < 1e-6);
    qcase "stats: mean lies between min and max"
      QCheck2.Gen.(array_size (int_range 1 30) (float_range (-1000.0) 1000.0))
      (fun xs ->
        let m = Stats.mean xs in
        Array.fold_left Float.min infinity xs <= m +. 1e-9
        && m <= Array.fold_left Float.max neg_infinity xs +. 1e-9);
    qcase ~count:500 "matrix: workspace LU equals the textbook LU"
      gen_sparse_system kernel_matches_textbook;
    qcase "tridiag: solution satisfies the system"
      QCheck2.Gen.(int_range 2 12)
      (fun n ->
        let diag = Array.make n 4.0 in
        let lower = Array.make (n - 1) (-1.0) in
        let upper = Array.make (n - 1) (-1.0) in
        let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
        let x = dense_solve (tridiag ~lower ~diag ~upper) rhs in
        let ok = ref true in
        for i = 0 to n - 1 do
          let v =
            (4.0 *. x.(i))
            -. (if i > 0 then x.(i - 1) else 0.0)
            -. (if i < n - 1 then x.(i + 1) else 0.0)
          in
          if abs_float (v -. rhs.(i)) > 1e-9 then ok := false
        done;
        !ok);
  ]

let suite =
  ( "numerics",
    [
      case "matrix: identity solve" test_identity_solve;
      case "matrix: known 2x2" test_known_2x2;
      case "matrix: pivoting" test_pivoting_needed;
      case "matrix: singular detected" test_singular_detected;
      case "matrix: residual small" test_residual;
      case "matrix: 30 random systems" test_random_solve_residual;
      case "matrix: mul_vec" test_mul_vec;
      case "matrix: transpose & mul" test_transpose_mul;
      case "matrix: dimension checks" test_bad_dims;
      case "matrix: workspace reusable" test_fact_reusable;
      case "matrix: workspace singular detected" test_fact_singular;
      case "tridiag: matches dense LU" test_tridiag_vs_dense;
      case "tridiag: size checks" test_tridiag_size_checks;
      case "tridiag: 1x1" test_tridiag_single;
      case "interp: exact at nodes" test_linear_at_nodes;
      case "interp: midpoint" test_linear_midpoint;
      case "interp: extrapolation" test_linear_extrapolates;
      case "interp: clamped" test_clamped;
      case "interp: bilinear" test_bilinear;
      case "interp: inverse crossing" test_inverse_linear;
      case "interp: derivative of a line" test_derivative_linear_fn;
      case "interp: grid validation" test_bracket_bad_grid;
      case "lsq: exact line" test_fit_exact_line;
      case "lsq: weighted outlier rejection" test_fit_weighted_ignores_outlier;
      case "lsq: constrained through point" test_fit_through_point;
      case "lsq: degenerate detected" test_fit_degenerate;
      case "lsq: gauss-newton linear" test_gauss_newton_quadratic;
      case "lsq: gauss-newton nonlinear" test_gauss_newton_nonlinear;
      case "lsq: gauss-newton monotone" test_gauss_newton_never_worse;
      case "roots: brent cubic" test_brent_cubic;
      case "roots: endpoint root" test_brent_endpoint_root;
      case "roots: no sign change" test_no_sign_change;
      case "roots: find_bracket" test_find_bracket;
      case "roots: find_bracket none" test_find_bracket_none;
      case "integrate: trapz linear exact" test_trapz_linear_exact;
      case "integrate: simpson cubic exact" test_simpson_cubic_exact;
      case "integrate: trapz_fn converges" test_trapz_fn_converges;
      case "stats: summarize" test_summarize;
      case "stats: percentile" test_percentile;
      case "stats: percentile is pure" test_percentile_does_not_mutate;
      case "stats: max_abs" test_max_abs;
      case "stats: empty raises" test_empty_raises;
    ]
    @ qcheck_tests )
