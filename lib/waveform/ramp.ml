type t = { slope : float; intercept : float; vdd : float }

let make ~slope ~intercept ~vdd =
  if slope = 0.0 then invalid_arg "Ramp.make: zero slope";
  if vdd <= 0.0 then invalid_arg "Ramp.make: vdd must be positive";
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

let value_at r t =
  let v = (r.slope *. t) +. r.intercept in
  Float.min r.vdd (Float.max 0.0 v)

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
