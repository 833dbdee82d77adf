let bound tree ~couplings ~aggressor_slew_rate =
  if aggressor_slew_rate <= 0.0 then
    invalid_arg "Noise_bound: slew rate must be positive";
  let known = Rctree.elmore tree |> List.map fst in
  List.iter
    (fun (name, cm) ->
      if cm < 0.0 then invalid_arg "Noise_bound: negative coupling";
      if not (List.mem name known) then
        invalid_arg ("Noise_bound: unknown node " ^ name))
    couplings;
  (* The injected current at node j is Cm_j * mu; the voltage bound at i
     is sum_j R(i,j) * I_j, which is exactly the Elmore-style
     shared-path-resistance sum with "capacitances" Cm_j * mu.
     Reuse the tree moment machinery by building a weight tree. *)
  let weight name =
    List.fold_left
      (fun acc (n, cm) -> if n = name then acc +. (cm *. aggressor_slew_rate) else acc)
      0.0 couplings
  in
  let rec rebuild (t : Rctree.t) =
    Rctree.node ~r:t.Rctree.r ~c:(weight t.Rctree.name) t.Rctree.name
      (List.map rebuild t.Rctree.children)
  in
  (* With c_j = Cm_j * mu, the "Elmore delay" of the rebuilt tree is the
     noise bound in volts. *)
  Rctree.elmore (rebuild tree)

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
