type moments = float array

(* Build the MNA G and C matrices of a linear circuit. Unknowns: node
   voltages then voltage-source branch currents, exactly like the
   transient engine. *)
let build_mna ckt =
  let n = Spice.Circuit.num_nodes ckt in
  if Spice.Circuit.mosfets ckt <> [] then
    invalid_arg "Awe: circuit contains nonlinear devices";
  let vsrcs = Spice.Circuit.vsources ckt in
  let m = List.length vsrcs in
  let nu = n + m in
  let g = Numerics.Matrix.create nu nu in
  let c = Numerics.Matrix.create nu nu in
  let idx (node : Spice.Circuit.node) = (node :> int) in
  let stamp mat a b v =
    let a = idx a and b = idx b in
    if a >= 0 then Numerics.Matrix.add_to mat a a v;
    if b >= 0 then Numerics.Matrix.add_to mat b b v;
    if a >= 0 && b >= 0 then begin
      Numerics.Matrix.add_to mat a b (-.v);
      Numerics.Matrix.add_to mat b a (-.v)
    end
  in
  List.iter (fun (a, b, r) -> stamp g a b (1.0 /. r)) (Spice.Circuit.resistors ckt);
  List.iter (fun (a, b, cv) -> stamp c a b cv) (Spice.Circuit.capacitors ckt);
  List.iteri
    (fun j (node, _) ->
      let row = n + j in
      let ni = idx node in
      Numerics.Matrix.add_to g ni row 1.0;
      Numerics.Matrix.add_to g row ni 1.0)
    vsrcs;
  (* A tiny gmin keeps floating nodes from making G singular. *)
  for i = 0 to n - 1 do
    Numerics.Matrix.add_to g i i 1e-12
  done;
  (g, c, n, m, vsrcs)

let moments_of_circuit ckt ~input ~output ~order =
  if order < 0 then invalid_arg "Awe.moments_of_circuit: negative order";
  let names = Spice.Circuit.node_names ckt in
  if not (List.mem input names) then
    invalid_arg ("Awe: unknown node " ^ input);
  if not (List.mem output names) then
    invalid_arg ("Awe: unknown node " ^ output);
  let in_node = Spice.Circuit.node ckt input in
  let out_node = Spice.Circuit.node ckt output in
  let g, c, n, m, vsrcs = build_mna ckt in
  let src_index =
    let rec find j = function
      | [] -> invalid_arg ("Awe: no voltage source on node " ^ input)
      | ((nd : Spice.Circuit.node), _) :: rest ->
          if (nd :> int) = (in_node :> int) then j else find (j + 1) rest
    in
    find 0 vsrcs
  in
  let nu = n + m in
  let lu = Numerics.Matrix.fact_create nu in
  Numerics.Matrix.factor_into g lu;
  let x = Array.make nu 0.0 in
  x.(n + src_index) <- 1.0;
  Numerics.Matrix.solve_into lu x;
  let out_i = (out_node :> int) in
  let ms = Array.make (order + 1) 0.0 in
  ms.(0) <- x.(out_i);
  for k = 1 to order do
    Array.iteri (fun i v -> x.(i) <- -.v) (Numerics.Matrix.mul_vec c x);
    Numerics.Matrix.solve_into lu x;
    ms.(k) <- x.(out_i)
  done;
  ms

type model = {
  poles : float array;
  residues : float array;
  dc : float;
}

let one_pole ms =
  if Array.length ms < 2 then failwith "Awe.pade: need at least 2 moments";
  let m0 = ms.(0) and m1 = ms.(1) in
  if m1 = 0.0 then failwith "Awe.pade: zero first moment";
  let p = m0 /. m1 in
  if p >= 0.0 then failwith "Awe.pade: unstable single pole";
  { poles = [| p |]; residues = [| -.m0 *. p |]; dc = m0 }

let two_pole ms =
  if Array.length ms < 4 then None
  else begin
    let m0 = ms.(0) and m1 = ms.(1) and m2 = ms.(2) and m3 = ms.(3) in
    (* Denominator 1 + b1 s + b2 s^2 from the moment Hankel system. *)
    let det = (m0 *. m2) -. (m1 *. m1) in
    if abs_float det < 1e-300 then None
    else begin
      let b2 = ((m1 *. m3) -. (m2 *. m2)) /. det in
      let b1 = ((m1 *. m2) -. (m0 *. m3)) /. det in
      (* Poles: roots of b2 s^2 + b1 s + 1 = 0, required real negative. *)
      let disc = (b1 *. b1) -. (4.0 *. b2) in
      if disc <= 0.0 || b2 = 0.0 then None
      else begin
        let sq = sqrt disc in
        let p1 = (-.b1 +. sq) /. (2.0 *. b2) in
        let p2 = (-.b1 -. sq) /. (2.0 *. b2) in
        if p1 >= 0.0 || p2 >= 0.0 then None
        else begin
          (* Residues from m0 = -k1/p1 - k2/p2, m1 = -k1/p1^2 - k2/p2^2. *)
          let a = Numerics.Matrix.of_arrays
              [| [| -1.0 /. p1; -1.0 /. p2 |];
                 [| -1.0 /. (p1 *. p1); -1.0 /. (p2 *. p2) |] |]
          in
          let lu = Numerics.Matrix.fact_create 2 in
          match Numerics.Matrix.factor_into a lu with
          | exception Numerics.Matrix.Singular _ -> None
          | () ->
              let k = [| m0; m1 |] in
              Numerics.Matrix.solve_into lu k;
              Some { poles = [| p1; p2 |]; residues = k; dc = m0 }
        end
      end
    end
  end

let pade ?(q = 2) ms =
  match q with
  | 1 -> one_pole ms
  | 2 -> (
      match two_pole ms with Some m -> m | None -> one_pole ms)
  | _ -> invalid_arg "Awe.pade: q must be 1 or 2"

let step_response m t =
  if t < 0.0 then 0.0
  else
    let acc = ref m.dc in
    Array.iteri
      (fun i p -> acc := !acc +. (m.residues.(i) /. p *. exp (p *. t)))
      m.poles;
    !acc

let delay ?(frac = 0.5) m =
  if m.dc = 0.0 then failwith "Awe.delay: zero DC gain";
  let target = frac *. m.dc in
  let tau =
    Array.fold_left (fun a p -> Float.max a (1.0 /. abs_float p)) 0.0 m.poles
  in
  let f t = step_response m t -. target in
  match Numerics.Roots.find_bracket f ~lo:0.0 ~hi:(30.0 *. tau) ~steps:3000 with
  | Some (a, b) -> Numerics.Roots.brent ~tol:(tau *. 1e-9) f a b
  | None -> failwith "Awe.delay: response never reaches the target"
