let line_bound ~driver_resistance ~line ~cm_total ~aggressor_slew_rate =
  if driver_resistance <= 0.0 then
    invalid_arg "Noise_bound.line_bound: driver resistance";
  let n = line.Rcline.nsegs in
  let rseg = line.Rcline.rtotal /. float_of_int n in
  let cm = cm_total /. float_of_int n in
  (* Far end: R(far, j) = driver + j * rseg for the j-th boundary. *)
  let acc = ref 0.0 in
  for j = 1 to n do
    acc := !acc +. ((driver_resistance +. (rseg *. float_of_int j)) *. cm)
  done;
  !acc *. aggressor_slew_rate
