type t = {
  vdd : float;
  low_frac : float;
  mid_frac : float;
  high_frac : float;
}

let make ?(low_frac = 0.1) ?(mid_frac = 0.5) ?(high_frac = 0.9) ~vdd () =
  if vdd <= 0.0 then invalid_arg "Thresholds.make: vdd must be positive";
  if not (0.0 < low_frac && low_frac < mid_frac && mid_frac < high_frac
          && high_frac < 1.0)
  then invalid_arg "Thresholds.make: need 0 < low < mid < high < 1";
  { vdd; low_frac; mid_frac; high_frac }

let v_low t = t.low_frac *. t.vdd
let v_mid t = t.mid_frac *. t.vdd
let v_high t = t.high_frac *. t.vdd
