(* Terminal voltage from the state vector; a negative index is ground. *)
let[@inline] volt x i = if i < 0 then 0.0 else x.(i)

(* Core alpha-power evaluation in NMOS convention with vds >= 0: writes
   (id, did_dvgs, did_dvds) to out.(k) .. out.(k+2). Inlined into
   [eval_into], so its float arguments stay unboxed. *)
let[@inline] alpha_power_into (p : Process.mos_params) ~width ~vgs ~vds out k =
  let vov = vgs -. p.vth in
  if vov <= 0.0 then begin
    out.(k) <- 0.0;
    out.(k + 1) <- 0.0;
    out.(k + 2) <- 0.0
  end
  else begin
    let idsat = p.ksat *. width *. (vov ** p.alpha) in
    let didsat_dvov = p.alpha *. idsat /. vov in
    let vdsat = p.kv *. (vov ** (p.alpha /. 2.0)) in
    let dvdsat_dvov = p.alpha /. 2.0 *. vdsat /. vov in
    let clm = 1.0 +. (p.lambda *. vds) in
    if vds >= vdsat then begin
      (* Saturation. *)
      out.(k) <- idsat *. clm;
      out.(k + 1) <- didsat_dvov *. clm;
      out.(k + 2) <- idsat *. p.lambda
    end
    else begin
      (* Triode: id = idsat * u (2 - u) * clm with u = vds/vdsat.
         Continuous in value and slope at vds = vdsat. *)
      let u = vds /. vdsat in
      let f = u *. (2.0 -. u) in
      let df_du = 2.0 -. (2.0 *. u) in
      let du_dvds = 1.0 /. vdsat in
      let du_dvdsat = -.vds /. (vdsat *. vdsat) in
      out.(k) <- idsat *. f *. clm;
      out.(k + 1) <-
        (didsat_dvov *. f *. clm)
        +. (idsat *. df_du *. du_dvdsat *. dvdsat_dvov *. clm);
      out.(k + 2) <- (idsat *. df_du *. du_dvds *. clm) +. (idsat *. f *. p.lambda)
    end
  end

(* Terminal-level NMOS: handles vd < vs by swapping source and drain.
   Adds a small leakage conductance so the Jacobian never goes fully
   singular when the device is off. PMOS is a mirrored NMOS:
   ids_p(vg, vd, vs) = -ids_n(-vg, -vd, -vs) evaluated with PMOS
   magnitude parameters. The chain rule flips the sign twice, so the
   terminal partials carry over unchanged; [sign] (1 or -1, both exact
   factors) mirrors the voltages and the current. *)
let eval_into (p : Process.mos_params) ~width ~sign x ~g ~d ~s out k =
  let vg = sign *. volt x g and vd = sign *. volt x d and vs = sign *. volt x s in
  let gleak = p.goff *. width in
  if vd >= vs then begin
    alpha_power_into p ~width ~vgs:(vg -. vs) ~vds:(vd -. vs) out k;
    let id = out.(k) and dg = out.(k + 1) and dd = out.(k + 2) in
    out.(k) <- sign *. (id +. (gleak *. (vd -. vs)));
    out.(k + 1) <- dg;
    out.(k + 2) <- dd +. gleak;
    out.(k + 3) <- -.dg -. dd -. gleak
  end
  else begin
    (* Swapped: the physical source is the drain terminal. *)
    alpha_power_into p ~width ~vgs:(vg -. vd) ~vds:(vs -. vd) out k;
    let id = out.(k) and dg = out.(k + 1) and dd = out.(k + 2) in
    out.(k) <- sign *. (-.id +. (gleak *. (vd -. vs)));
    out.(k + 1) <- -.dg;
    out.(k + 2) <- dg +. dd +. gleak;
    out.(k + 3) <- -.dd -. gleak
  end

let nmos (proc : Process.t) ~width =
  if width <= 0.0 then invalid_arg "Mosfet.nmos: width must be positive";
  let p = proc.Process.nmos in
  fun x ~g ~d ~s out k -> eval_into p ~width ~sign:1.0 x ~g ~d ~s out k

let pmos (proc : Process.t) ~width =
  if width <= 0.0 then invalid_arg "Mosfet.pmos: width must be positive";
  let p = proc.Process.pmos in
  fun x ~g ~d ~s out k -> eval_into p ~width ~sign:(-1.0) x ~g ~d ~s out k
