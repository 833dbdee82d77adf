type spec = { rtotal : float; ctotal : float; nsegs : int }

let validate { rtotal; ctotal; nsegs } =
  if rtotal <= 0.0 then invalid_arg "Rcline: rtotal must be positive";
  if ctotal <= 0.0 then invalid_arg "Rcline: ctotal must be positive";
  if nsegs < 1 then invalid_arg "Rcline: nsegs must be >= 1"

let build ckt ~prefix ~near spec =
  validate spec;
  let open Spice in
  let n = spec.nsegs in
  let rseg = spec.rtotal /. float_of_int n in
  let cseg = spec.ctotal /. float_of_int n in
  let gnd = Circuit.gnd ckt in
  let boundary i =
    if i = 0 then near else Circuit.node ckt (Printf.sprintf "%s.%d" prefix i)
  in
  (* End boundaries carry half a section's capacitance. *)
  Circuit.capacitor ckt (boundary 0) gnd (cseg /. 2.0);
  for i = 1 to n do
    Circuit.resistor ckt (boundary (i - 1)) (boundary i) rseg;
    let c = if i = n then cseg /. 2.0 else cseg in
    Circuit.capacitor ckt (boundary i) gnd c
  done;
  boundary n

let elmore spec =
  validate spec;
  spec.rtotal *. spec.ctotal /. 2.0

let elmore_discrete spec =
  validate spec;
  let n = spec.nsegs in
  let rseg = spec.rtotal /. float_of_int n in
  let cseg = spec.ctotal /. float_of_int n in
  (* Elmore to the far end: sum over sections of (resistance from the
     source) * (capacitance at each boundary). *)
  let acc = ref 0.0 in
  for i = 1 to n do
    let rpath = rseg *. float_of_int i in
    let c = if i = n then cseg /. 2.0 else cseg in
    acc := !acc +. (rpath *. c)
  done;
  !acc
