type line = { slope : float; intercept : float }

(* Weighted normal equations for the 2-parameter line fit. Times are
   shifted by their weighted mean before forming the sums to keep the
   system well conditioned for nanosecond-scale abscissae. *)
let fit_line ?weights ts vs =
  let n = Array.length ts in
  if n <> Array.length vs then invalid_arg "Lsq.fit_line: size mismatch";
  if n < 2 then invalid_arg "Lsq.fit_line: need at least 2 points";
  let w = match weights with
    | None -> Array.make n 1.0
    | Some w ->
      if Array.length w <> n then invalid_arg "Lsq.fit_line: weights size";
      w
  in
  let sw = ref 0.0 and swt = ref 0.0 in
  for k = 0 to n - 1 do
    sw := !sw +. w.(k);
    swt := !swt +. (w.(k) *. ts.(k))
  done;
  if !sw <= 0.0 then failwith "Lsq.fit_line: degenerate";
  let tbar = !swt /. !sw in
  let stt = ref 0.0 and stv = ref 0.0 and sv = ref 0.0 in
  for k = 0 to n - 1 do
    let dt = ts.(k) -. tbar in
    stt := !stt +. (w.(k) *. dt *. dt);
    stv := !stv +. (w.(k) *. dt *. vs.(k));
    sv := !sv +. (w.(k) *. vs.(k))
  done;
  if !stt <= 0.0 then failwith "Lsq.fit_line: degenerate";
  let slope = !stv /. !stt in
  let intercept = (!sv /. !sw) -. (slope *. tbar) in
  { slope; intercept }

type normal = { a00 : float; a01 : float; a11 : float; g0 : float; g1 : float }

let gauss_newton ?(max_iter = 25) ?(tol = 1e-12) ~cost ~normal (a0, b0) =
  (* The current iterate is always the best one seen: a step is taken
     only when it lowers the cost. *)
  let a = ref a0 and b = ref b0 in
  let best_cost = ref (cost a0 b0) in
  let m = Matrix.create 2 2 and f = Matrix.fact_create 2 in
  let dx = Array.make 2 0.0 in
  (try
     for _ = 1 to max_iter do
       let { a00; a01; a11; g0; g1 } = normal !a !b in
       (* Levenberg damping on the diagonal guards rank deficiency. *)
       let damp x = x +. (1e-12 *. (1.0 +. abs_float x)) in
       Matrix.set m 0 0 (damp a00);
       Matrix.set m 0 1 a01;
       Matrix.set m 1 0 a01;
       Matrix.set m 1 1 (damp a11);
       Matrix.factor_into m f;
       dx.(0) <- g0;
       dx.(1) <- g1;
       Matrix.solve_into f dx;
       let step_norm =
         Float.max (Float.max 0.0 (abs_float dx.(0))) (abs_float dx.(1))
       in
       (* Backtracking line search. *)
       let lambda = ref 1.0 in
       let improved = ref false in
       let attempts = ref 0 in
       while (not !improved) && !attempts < 20 do
         let ta = !a +. (!lambda *. dx.(0)) and tb = !b +. (!lambda *. dx.(1)) in
         let c = cost ta tb in
         if c < !best_cost then begin
           a := ta;
           b := tb;
           best_cost := c;
           improved := true
         end
         else begin
           lambda := !lambda /. 2.0;
           incr attempts
         end
       done;
       if (not !improved) || step_norm < tol then raise Exit
     done
   with Exit | Matrix.Singular _ -> ());
  (!a, !b)
