(* Arrowhead system

       [ B  F ] [x1]   [r1]
       [ G  D ] [x2] = [r2]

   with a banded core B (nb x nb) and a small dense border (b rows).
   Factoring computes Z = B^-1 F column by column and the dense Schur
   complement S = D - G Z; solving is two banded substitutions plus a
   b x b dense solve. F is stored column-major so each Z column is a
   contiguous in-place [Banded.solve_into]. *)

type t = {
  nb : int;
  b : int;
  core : Banded.t;
  f : float array; (* nb x b, column-major *)
  g : float array; (* b x nb, row-major *)
  d : float array; (* b x b, row-major *)
}

type fact = {
  fnb : int;
  fb : int;
  core_fact : Banded.fact;
  z : float array; (* B^-1 F, nb x b column-major *)
  gs : float array; (* snapshot of G at factor time *)
  s : Matrix.t option; (* Schur complement, when b > 0 *)
  sf : Matrix.fact option;
  r2 : float array; (* border scratch, length b *)
}

let create ~nb ~kl ~ku ~border =
  if nb <= 0 then invalid_arg "Bordered.create: core size must be positive";
  if border < 0 then invalid_arg "Bordered.create: negative border";
  {
    nb;
    b = border;
    core = Banded.create ~n:nb ~kl ~ku;
    f = Array.make (nb * border) 0.0;
    g = Array.make (border * nb) 0.0;
    d = Array.make (border * border) 0.0;
  }

let dim t = t.nb + t.b

let check_pos t i j name =
  let n = t.nb + t.b in
  if i < 0 || j < 0 || i >= n || j >= n then invalid_arg name

let add_to t i j x =
  check_pos t i j "Bordered.add_to: out of range";
  if i < t.nb && j < t.nb then Banded.add_to t.core i j x
  else if i < t.nb then begin
    let k = ((j - t.nb) * t.nb) + i in
    t.f.(k) <- t.f.(k) +. x
  end
  else if j < t.nb then begin
    let k = ((i - t.nb) * t.nb) + j in
    t.g.(k) <- t.g.(k) +. x
  end
  else begin
    let k = ((i - t.nb) * t.b) + (j - t.nb) in
    t.d.(k) <- t.d.(k) +. x
  end

(* Backing array + flat offset of an entry in whichever quadrant it
   lives, for compiling static stamp patterns (see [Matrix.slot]).
   Raises for core entries outside the band. *)
let slot t i j =
  check_pos t i j "Bordered.slot: out of range";
  if i < t.nb && j < t.nb then Banded.slot t.core i j
  else if i < t.nb then (t.f, ((j - t.nb) * t.nb) + i)
  else if j < t.nb then (t.g, ((i - t.nb) * t.nb) + j)
  else (t.d, ((i - t.nb) * t.b) + (j - t.nb))

let get t i j =
  check_pos t i j "Bordered.get: out of range";
  if i < t.nb && j < t.nb then Banded.get t.core i j
  else if i < t.nb then t.f.(((j - t.nb) * t.nb) + i)
  else if j < t.nb then t.g.(((i - t.nb) * t.nb) + j)
  else t.d.(((i - t.nb) * t.b) + (j - t.nb))

let fill t x =
  Banded.fill t.core x;
  Array.fill t.f 0 (Array.length t.f) x;
  Array.fill t.g 0 (Array.length t.g) x;
  Array.fill t.d 0 (Array.length t.d) x

let blit src dst =
  if src.nb <> dst.nb || src.b <> dst.b then
    invalid_arg "Bordered.blit: shape mismatch";
  Banded.blit src.core dst.core;
  Array.blit src.f 0 dst.f 0 (Array.length src.f);
  Array.blit src.g 0 dst.g 0 (Array.length src.g);
  Array.blit src.d 0 dst.d 0 (Array.length src.d)

let to_dense t =
  let n = dim t in
  let m = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set m i j (get t i j)
    done
  done;
  m

let fact_create t =
  {
    fnb = t.nb;
    fb = t.b;
    core_fact = Banded.fact_create t.core;
    z = Array.make (t.nb * t.b) 0.0;
    gs = Array.make (t.b * t.nb) 0.0;
    s = (if t.b > 0 then Some (Matrix.create t.b t.b) else None);
    sf = (if t.b > 0 then Some (Matrix.fact_create t.b) else None);
    r2 = Array.make t.b 0.0;
  }

let factor_into t f =
  if f.fnb <> t.nb || f.fb <> t.b then
    invalid_arg "Bordered.factor_into: shape mismatch";
  Banded.factor_into t.core f.core_fact;
  if t.b > 0 then begin
    let nb = t.nb and b = t.b in
    Array.blit t.f 0 f.z 0 (nb * b);
    for c = 0 to b - 1 do
      Banded.solve_into f.core_fact ~pos:(c * nb) f.z
    done;
    (* G must be snapshot: a reused factorization outlives restamps of
       [t]. *)
    Array.blit t.g 0 f.gs 0 (b * nb);
    let s = Option.get f.s in
    let g = t.g and z = f.z in
    for r = 0 to b - 1 do
      let gbase = r * nb in
      for c = 0 to b - 1 do
        let zbase = c * nb in
        let acc = ref t.d.((r * b) + c) in
        for j = 0 to nb - 1 do
          acc :=
            !acc
            -. (Array.unsafe_get g (gbase + j)
               *. Array.unsafe_get z (zbase + j))
        done;
        Matrix.set s r c !acc
      done
    done;
    Matrix.factor_into s (Option.get f.sf)
  end

let solve_into f x =
  let nb = f.fnb and b = f.fb in
  if Array.length x <> nb + b then
    invalid_arg "Bordered.solve_into: size mismatch";
  (* y1 = B^-1 r1 in place. *)
  Banded.solve_into f.core_fact ~pos:0 x;
  if b > 0 then begin
    (* Unsafe accesses: [x] length was checked against [nb + b] and the
       gs/z blocks are sized nb x b at creation. *)
    (* x2 = S^-1 (r2 - G y1). *)
    let gs = f.gs and z = f.z in
    for r = 0 to b - 1 do
      let gbase = r * nb in
      let acc = ref x.(nb + r) in
      for j = 0 to nb - 1 do
        acc :=
          !acc
          -. (Array.unsafe_get gs (gbase + j) *. Array.unsafe_get x j)
      done;
      f.r2.(r) <- !acc
    done;
    Matrix.solve_into (Option.get f.sf) f.r2;
    for r = 0 to b - 1 do
      x.(nb + r) <- f.r2.(r)
    done;
    (* x1 = y1 - Z x2. *)
    for c = 0 to b - 1 do
      let xc = f.r2.(c) in
      if xc <> 0.0 then begin
        let zbase = c * nb in
        for i = 0 to nb - 1 do
          Array.unsafe_set x i
            (Array.unsafe_get x i -. (Array.unsafe_get z (zbase + i) *. xc))
        done
      end
    done
  end
