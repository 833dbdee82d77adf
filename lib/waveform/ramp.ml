type t = { slope : float; intercept : float; vdd : float }

let make ~slope ~intercept ~vdd =
  if slope = 0.0 then invalid_arg "Ramp.make: zero slope";
  if not (vdd > 0.0) then invalid_arg "Ramp.make: vdd must be positive";
  { slope; intercept; vdd }

let of_line (l : Numerics.Lsq.line) ~vdd =
  make ~slope:l.Numerics.Lsq.slope ~intercept:l.Numerics.Lsq.intercept ~vdd

let direction r = if r.slope > 0.0 then Wave.Rising else Wave.Falling

let crossing r level =
  if level <= 0.0 || level >= r.vdd then
    invalid_arg "Ramp.crossing: level outside (0, vdd)";
  (level -. r.intercept) /. r.slope

let of_arrival_slew ~arrival ~slew ~dir th =
  if slew <= 0.0 then invalid_arg "Ramp.of_arrival_slew: slew must be positive";
  let vdd = th.Thresholds.vdd in
  let dv = (th.Thresholds.high_frac -. th.Thresholds.low_frac) *. vdd in
  let mag = dv /. slew in
  let slope = match dir with Wave.Rising -> mag | Wave.Falling -> -.mag in
  let v_mid = Thresholds.v_mid th in
  let intercept = v_mid -. (slope *. arrival) in
  make ~slope ~intercept ~vdd

(* min(max(v, 0), vdd) as plain comparisons, so the clamp is inlined
   rather than two out-of-line calls on boxed floats. It gives
   [Float.min r.vdd (Float.max 0.0 v)] bit for bit: v above the floor
   keeps its bits, -0.0 and below clamp to +0.0, and a NaN passes
   through. *)
let[@inline] value_at r t =
  let v = (r.slope *. t) +. r.intercept in
  if v > 0.0 then if v < r.vdd then v else r.vdd
  else if v <= 0.0 then 0.0
  else v

let value_into r buf i = buf.(i) <- value_at r buf.(i)

let arrival r th = crossing r (Thresholds.v_mid th)

let slew r th =
  let t_lo = crossing r (Thresholds.v_low th) in
  let t_hi = crossing r (Thresholds.v_high th) in
  abs_float (t_hi -. t_lo)

let t_begin r =
  (* Time the unclipped line leaves the starting rail. *)
  if r.slope > 0.0 then (0.0 -. r.intercept) /. r.slope
  else (r.vdd -. r.intercept) /. r.slope

let t_settle r =
  if r.slope > 0.0 then (r.vdd -. r.intercept) /. r.slope
  else (0.0 -. r.intercept) /. r.slope

let to_waveform ?pad ?(n = 201) r =
  let trans = abs_float (r.vdd /. r.slope) in
  let pad = match pad with Some p -> p | None -> trans in
  let t0 = t_begin r -. pad and t1 = t_settle r +. pad in
  Wave.of_fun ~t0 ~t1 ~n (value_at r)
