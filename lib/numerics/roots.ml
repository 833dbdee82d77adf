let brent ?(tol = 1e-15) ?(max_iter = 100) f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then invalid_arg "Roots.brent: no sign change"
  else begin
    (* State follows the classical Brent formulation: b is the current
       best, a the previous iterate, c the bracket counterpart. *)
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if abs_float !fa < abs_float !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let mflag = ref true in
    let d = ref !c in
    let i = ref 0 in
    while !fb <> 0.0 && abs_float (!b -. !a) > tol && !i < max_iter do
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* Inverse quadratic interpolation. *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo = ((3.0 *. !a) +. !b) /. 4.0 in
      let cond1 = not ((s > Float.min lo !b) && (s < Float.max lo !b)) in
      let cond2 = !mflag && abs_float (s -. !b) >= abs_float (!b -. !c) /. 2.0 in
      let cond3 = (not !mflag) && abs_float (s -. !b) >= abs_float (!c -. !d) /. 2.0 in
      let cond4 = !mflag && abs_float (!b -. !c) < tol in
      let cond5 = (not !mflag) && abs_float (!c -. !d) < tol in
      let s =
        if cond1 || cond2 || cond3 || cond4 || cond5 then begin
          mflag := true;
          0.5 *. (!a +. !b)
        end
        else begin
          mflag := false;
          s
        end
      in
      let fs = f s in
      d := !c;
      c := !b;
      fc := !fb;
      if !fa *. fs < 0.0 then begin
        b := s;
        fb := fs
      end
      else begin
        a := s;
        fa := fs
      end;
      if abs_float !fa < abs_float !fb then begin
        let t = !a in a := !b; b := t;
        let t = !fa in fa := !fb; fb := t
      end;
      incr i
    done;
    !b
  end

let find_bracket f ~lo ~hi ~steps =
  if steps < 1 then invalid_arg "Roots.find_bracket: steps";
  let h = (hi -. lo) /. float_of_int steps in
  let rec scan i fprev =
    if i > steps then None
    else
      let x = lo +. (h *. float_of_int i) in
      let fx = f x in
      if fprev *. fx <= 0.0 then Some (x -. h, x) else scan (i + 1) fx
  in
  scan 1 (f lo)
