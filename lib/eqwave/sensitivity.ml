type t = Arc.sensitivity = {
  region : float * float;
  ts : float array;
  vin : float array;
  rho : float array;
  drho_dv : float array;
  output_shift : float;
  v_grid : float array;
  rho_by_v : float array;
  drho_by_v : float array;
}

let compute ?(output_shift = 0.0) ?(points = 201) ctx =
  Arc.sensitivity (Technique.arc ctx) ~output_shift ~points

let lookup_by_voltage s ys v =
  let xs = s.v_grid in
  let n = Array.length xs in
  (* Outside the critical voltage band the sensitivity is zero by
     definition (the paper's filter). *)
  if n < 2 || v < xs.(0) || v > xs.(n - 1) then 0.0
  else Numerics.Interp.linear xs ys v

let rho_at_voltage s v = lookup_by_voltage s s.rho_by_v v
let drho_dv_at_voltage s v = lookup_by_voltage s s.drho_by_v v

let rho_at_time s t =
  let a, b = s.region in
  if t < a || t > b then 0.0 else Numerics.Interp.linear s.ts s.rho t

let overlap_shift ctx = Arc.overlap_shift (Technique.arc ctx)

let peak s =
  Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 s.rho
