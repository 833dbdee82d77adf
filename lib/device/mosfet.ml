(* Core alpha-power evaluation in NMOS convention with vds >= 0.
   Returns (id, did_dvgs, did_dvds). *)
let alpha_power (p : Process.mos_params) ~width ~vgs ~vds =
  let vov = vgs -. p.vth in
  if vov <= 0.0 then (0.0, 0.0, 0.0)
  else begin
    let idsat = p.ksat *. width *. (vov ** p.alpha) in
    let didsat_dvov = p.alpha *. idsat /. vov in
    let vdsat = p.kv *. (vov ** (p.alpha /. 2.0)) in
    let dvdsat_dvov = p.alpha /. 2.0 *. vdsat /. vov in
    let clm = 1.0 +. (p.lambda *. vds) in
    if vds >= vdsat then
      (* Saturation. *)
      ( idsat *. clm,
        didsat_dvov *. clm,
        idsat *. p.lambda )
    else begin
      (* Triode: id = idsat * u (2 - u) * clm with u = vds/vdsat.
         Continuous in value and slope at vds = vdsat. *)
      let u = vds /. vdsat in
      let f = u *. (2.0 -. u) in
      let df_du = 2.0 -. (2.0 *. u) in
      let du_dvds = 1.0 /. vdsat in
      let du_dvdsat = -.vds /. (vdsat *. vdsat) in
      let id = idsat *. f *. clm in
      let did_dvgs =
        (didsat_dvov *. f *. clm)
        +. (idsat *. df_du *. du_dvdsat *. dvdsat_dvov *. clm)
      in
      let did_dvds =
        (idsat *. df_du *. du_dvds *. clm) +. (idsat *. f *. p.lambda)
      in
      (id, did_dvgs, did_dvds)
    end
  end

(* Terminal-level NMOS: handles vd < vs by swapping source and drain.
   Adds a small leakage conductance so the Jacobian never goes fully
   singular when the device is off. *)
let nmos_terminal (p : Process.mos_params) ~width ~vg ~vd ~vs =
  let gleak = p.goff *. width in
  if vd >= vs then begin
    let id, dg, dd = alpha_power p ~width ~vgs:(vg -. vs) ~vds:(vd -. vs) in
    let ids = id +. (gleak *. (vd -. vs)) in
    let dids_dvg = dg in
    let dids_dvd = dd +. gleak in
    let dids_dvs = -.dg -. dd -. gleak in
    (ids, dids_dvg, dids_dvd, dids_dvs)
  end
  else begin
    (* Swapped: the physical source is the drain terminal. *)
    let id, dg, dd = alpha_power p ~width ~vgs:(vg -. vd) ~vds:(vs -. vd) in
    let ids = -.id +. (gleak *. (vd -. vs)) in
    let dids_dvg = -.dg in
    let dids_dvs = -.dd -. gleak in
    let dids_dvd = dg +. dd +. gleak in
    (ids, dids_dvg, dids_dvd, dids_dvs)
  end

let nmos (proc : Process.t) ~width =
  if width <= 0.0 then invalid_arg "Mosfet.nmos: width must be positive";
  let p = proc.Process.nmos in
  fun ~vg ~vd ~vs -> nmos_terminal p ~width ~vg ~vd ~vs

(* PMOS as a mirrored NMOS: ids_p(vg, vd, vs) = -ids_n(-vg, -vd, -vs)
   evaluated with PMOS magnitude parameters. The chain rule flips the
   sign twice, so the terminal partials carry over unchanged. *)
let pmos (proc : Process.t) ~width =
  if width <= 0.0 then invalid_arg "Mosfet.pmos: width must be positive";
  let p = proc.Process.pmos in
  fun ~vg ~vd ~vs ->
    let ids, dg, dd, ds =
      nmos_terminal p ~width ~vg:(-.vg) ~vd:(-.vd) ~vs:(-.vs)
    in
    (-.ids, dg, dd, ds)
