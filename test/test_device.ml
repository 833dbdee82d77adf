open Helpers

let proc = Device.Process.c13
let vdd = proc.Device.Process.vdd

(* Channel currents through the closures the transient engine stamps:
   NMOS with its source grounded, PMOS (as a magnitude) with its source
   pinned at vdd. *)
let nmos_id ~width ~vgs ~vds =
  let ids, _, _, _ =
    eval_fet (Device.Mosfet.nmos proc ~width) ~vg:vgs ~vd:vds ~vs:0.0
  in
  ids

let pmos_id ~width ~vsg ~vsd =
  let ids, _, _, _ =
    eval_fet (Device.Mosfet.pmos proc ~width) ~vg:(vdd -. vsg) ~vd:(vdd -. vsd)
      ~vs:vdd
  in
  abs_float ids

(* ------------------------------------------------------------------ *)
(* Alpha-power-law model                                               *)

let test_cutoff () =
  approx "below vth" 0.0
    (nmos_id ~width:1e-6 ~vgs:0.2 ~vds:1.0)

let test_on_current_scale () =
  (* Ion at full gate drive: the c13 corner targets ~600 uA/um. *)
  let ion = nmos_id ~width:1e-6 ~vgs:vdd ~vds:vdd in
  check_true "N Ion in range" (ion > 400e-6 && ion < 900e-6);
  let iop = pmos_id ~width:1e-6 ~vsg:vdd ~vsd:vdd in
  check_true "P Ion in range" (iop > 150e-6 && iop < 500e-6);
  check_true "P weaker than N" (iop < ion)

let test_width_scaling () =
  let i1 = nmos_id ~width:1e-6 ~vgs:1.0 ~vds:1.0 in
  let i4 = nmos_id ~width:4e-6 ~vgs:1.0 ~vds:1.0 in
  approx_rel ~rel:1e-9 "4x width = 4x current" (4.0 *. i1) i4

let test_monotone_in_vgs () =
  let prev = ref (-1.0) in
  for k = 0 to 24 do
    let vgs = float_of_int k *. vdd /. 24.0 in
    let i = nmos_id ~width:1e-6 ~vgs ~vds:vdd in
    check_true "monotone vgs" (i >= !prev -. 1e-15);
    prev := i
  done

let test_monotone_in_vds () =
  let prev = ref (-1.0) in
  for k = 0 to 24 do
    let vds = float_of_int k *. vdd /. 24.0 in
    let i = nmos_id ~width:1e-6 ~vgs:vdd ~vds in
    check_true "monotone vds" (i >= !prev -. 1e-12);
    prev := i
  done

let test_continuity_at_vdsat () =
  (* Scan vds finely: no jump bigger than the local increments. *)
  let n = 2000 in
  let prev = ref 0.0 in
  let max_jump = ref 0.0 in
  for k = 0 to n do
    let vds = float_of_int k *. vdd /. float_of_int n in
    let i = nmos_id ~width:1e-6 ~vgs:0.8 ~vds in
    if k > 0 then max_jump := Float.max !max_jump (abs_float (i -. !prev));
    prev := i
  done;
  (* Total current ~ 200 uA over 2000 steps: jumps must stay ~ uA. *)
  check_true "no discontinuity" (!max_jump < 3e-6)

let fd_check name eval ~vg ~vd ~vs =
  (* Finite-difference validation of the analytic Jacobian entries. *)
  let h = 1e-7 in
  let i0, dg, dd, ds = eval ~vg ~vd ~vs in
  let ip, _, _, _ = eval ~vg:(vg +. h) ~vd ~vs in
  approx_rel ~rel:2e-2 (name ^ " dIds/dVg") ((ip -. i0) /. h +. 1e-12) (dg +. 1e-12);
  let ip, _, _, _ = eval ~vg ~vd:(vd +. h) ~vs in
  approx_rel ~rel:2e-2 (name ^ " dIds/dVd") ((ip -. i0) /. h +. 1e-12) (dd +. 1e-12);
  let ip, _, _, _ = eval ~vg ~vd ~vs:(vs +. h) in
  approx_rel ~rel:2e-2 (name ^ " dIds/dVs") ((ip -. i0) /. h +. 1e-12) (ds +. 1e-12)

let test_nmos_derivatives () =
  let eval = eval_fet (Device.Mosfet.nmos proc ~width:2e-6) in
  (* Operating points covering triode, saturation, and swapped S/D. *)
  List.iter
    (fun (vg, vd, vs) -> fd_check "nmos" eval ~vg ~vd ~vs)
    [
      (1.2, 1.2, 0.0); (* saturation *)
      (1.2, 0.1, 0.0); (* deep triode *)
      (0.8, 0.3, 0.0); (* moderate *)
      (1.0, 0.0, 0.4); (* swapped drain/source *)
      (0.7, 0.9, 0.2);
    ]

let test_pmos_derivatives () =
  let eval = eval_fet (Device.Mosfet.pmos proc ~width:2e-6) in
  List.iter
    (fun (vg, vd, vs) -> fd_check "pmos" eval ~vg ~vd ~vs)
    [ (0.0, 0.0, 1.2); (0.0, 1.1, 1.2); (0.5, 0.6, 1.2); (0.3, 1.2, 0.9) ]

let test_pmos_pulls_up () =
  (* Gate low, source at vdd, drain low: the PMOS sources current into
     the drain (ids < 0 in drain->source convention means current flows
     source->drain... our convention: ids flows d->s; for a conducting
     PMOS pulling the drain up, current enters the drain from the
     supply: ids must be negative. *)
  let eval = eval_fet (Device.Mosfet.pmos proc ~width:1e-6) in
  let ids, _, _, _ = eval ~vg:0.0 ~vd:0.0 ~vs:vdd in
  check_true "pmos conducts upward" (ids < -1e-5)

let test_nmos_symmetry () =
  (* Swapping drain and source negates the current. *)
  let eval = eval_fet (Device.Mosfet.nmos proc ~width:1e-6) in
  let i1, _, _, _ = eval ~vg:1.0 ~vd:0.6 ~vs:0.2 in
  let i2, _, _, _ = eval ~vg:1.0 ~vd:0.2 ~vs:0.6 in
  approx_rel ~rel:1e-9 "antisymmetric" i1 (-.i2)

let test_width_validation () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Mosfet.nmos: width must be positive") (fun () ->
      let (_ : Spice.Circuit.mosfet_eval) = Device.Mosfet.nmos proc ~width:0.0 in
      ())

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

let test_cell_sizes () =
  let open Device.Cell in
  Alcotest.(check string) "name" "INVx16" inv_x16.name;
  approx_rel ~rel:1e-9 "x4 width" (4.0 *. inv_x1.wn) inv_x4.wn;
  approx_rel ~rel:1e-9 "x64 width" (64.0 *. inv_x1.wp) inv_x64.wp

let test_cell_validation () =
  Alcotest.check_raises "drive" (Invalid_argument "Cell: drive must be >= 1")
    (fun () -> ignore (Device.Cell.inv proc ~drive:0))

let test_input_cap_scales () =
  let c1 = Device.Cell.input_cap proc Device.Cell.inv_x1 in
  let c16 = Device.Cell.input_cap proc Device.Cell.inv_x16 in
  approx_rel ~rel:1e-9 "cap scales" (16.0 *. c1) c16;
  check_true "cap plausible" (c1 > 0.1e-15 && c1 < 5e-15)

let test_inverter_dc_transfer () =
  (* Sweep the input DC level: the output must fall monotonically from
     ~vdd to ~0 with a high-gain region in the middle. *)
  let open Spice in
  let out_for vin =
    let ckt = Circuit.create () in
    let vddn = Device.Cell.attach_supply proc ckt in
    let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
    Device.Cell.instantiate proc Device.Cell.inv_x1 ~ckt ~input:a ~output:y
      ~vdd_node:vddn ~name:"u1";
    Circuit.vsource ckt a (Source.dc vin);
    let guess = [ ("y", if vin > 0.6 then 0.0 else vdd) ] in
    dc_point ~ic:guess ckt "y"
  in
  let low = out_for 0.0 and high = out_for vdd in
  check_true "output high for low input" (low > 0.95 *. vdd);
  check_true "output low for high input" (high < 0.05 *. vdd);
  let mid = out_for (vdd /. 2.0) in
  check_true "transition region" (mid > 0.05 *. vdd && mid < 0.95 *. vdd)

let test_inverter_transient_delay () =
  (* An x1 inverter driving 4 fF: delay should be tens of ps, output
     must fully switch, and a rising input gives a falling output. *)
  let open Spice in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc Device.Cell.inv_x1 ~ckt ~input:a ~output:y
    ~vdd_node:vddn ~name:"u1";
  Circuit.capacitor ckt y (Circuit.gnd ckt) 4e-15;
  Circuit.vsource ckt a (Source.ramp ~t0:0.2e-9 ~v0:0.0 ~v1:vdd ~trans:150e-12);
  let config = { Transient.default_config with dt = 1e-12; tstop = 1.5e-9 } in
  let res = Transient.run ~config ckt in
  let th = Device.Process.thresholds proc in
  let wa = Transient.probe res "a" and wy = Transient.probe res "y" in
  check_true "output falls" (Waveform.Wave.direction wy = Waveform.Wave.Falling);
  approx ~eps:0.01 "full swing" 0.0 (final_voltage res "y");
  match (Waveform.Wave.arrival wa th, Waveform.Wave.arrival wy th) with
  | Some ti, Some ty ->
      let d = ty -. ti in
      check_true "plausible delay" (d > 5e-12 && d < 200e-12)
  | _ -> Alcotest.fail "missing crossings"

let test_chain_propagates () =
  (* Two cascaded inverters restore polarity and add delay. *)
  let open Spice in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" in
  let m = Circuit.node ckt "m" in
  let y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc Device.Cell.inv_x1 ~ckt ~input:a ~output:m
    ~vdd_node:vddn ~name:"u1";
  Device.Cell.instantiate proc Device.Cell.inv_x4 ~ckt ~input:m ~output:y
    ~vdd_node:vddn ~name:"u2";
  Circuit.vsource ckt a (Source.ramp ~t0:0.2e-9 ~v0:0.0 ~v1:vdd ~trans:100e-12);
  let config = { Transient.default_config with dt = 1e-12; tstop = 2e-9 } in
  let res = Transient.run ~config ckt in
  let wy = Transient.probe res "y" in
  check_true "polarity restored"
    (Waveform.Wave.direction wy = Waveform.Wave.Rising);
  approx ~eps:0.01 "settles at vdd" vdd (final_voltage res "y")

let qcheck_tests =
  [
    qcase ~count:60 "mosfet: analytic jacobian matches finite differences"
      QCheck2.Gen.(
        triple (float_range 0.0 1.2) (float_range 0.05 1.15)
          (float_range 0.05 1.15))
      (fun (vg, vd, vs) ->
        (* Keep away from the exact vds=0 kink where the FD straddles
           the symmetry point. *)
        QCheck2.assume (abs_float (vd -. vs) > 1e-3);
        let eval = eval_fet (Device.Mosfet.nmos proc ~width:1e-6) in
        let h = 1e-7 in
        let i0, dg, dd, ds = eval ~vg ~vd ~vs in
        let ig, _, _, _ = eval ~vg:(vg +. h) ~vd ~vs in
        let id, _, _, _ = eval ~vg ~vd:(vd +. h) ~vs in
        let is, _, _, _ = eval ~vg ~vd ~vs:(vs +. h) in
        let ok got expect =
          abs_float (got -. expect) <= (3e-2 *. abs_float expect) +. 1e-9
        in
        ok ((ig -. i0) /. h) dg
        && ok ((id -. i0) /. h) dd
        && ok ((is -. i0) /. h) ds);
    qcase ~count:30 "mosfet: current is antisymmetric under S/D swap"
      QCheck2.Gen.(
        triple (float_range 0.0 1.2) (float_range 0.0 1.2) (float_range 0.0 1.2))
      (fun (vg, vd, vs) ->
        let eval = eval_fet (Device.Mosfet.nmos proc ~width:1e-6) in
        let i1, _, _, _ = eval ~vg ~vd ~vs in
        let i2, _, _, _ = eval ~vg ~vd:vs ~vs:vd in
        abs_float (i1 +. i2) < 1e-12 +. (1e-9 *. abs_float i1));
  ]

let suite =
  ( "device",
    [
      case "mosfet: cutoff" test_cutoff;
      case "mosfet: on-current scale" test_on_current_scale;
      case "mosfet: width scaling" test_width_scaling;
      case "mosfet: monotone in vgs" test_monotone_in_vgs;
      case "mosfet: monotone in vds" test_monotone_in_vds;
      case "mosfet: continuity at vdsat" test_continuity_at_vdsat;
      case "mosfet: nmos derivatives" test_nmos_derivatives;
      case "mosfet: pmos derivatives" test_pmos_derivatives;
      case "mosfet: pmos pulls up" test_pmos_pulls_up;
      case "mosfet: S/D antisymmetry" test_nmos_symmetry;
      case "mosfet: width validation" test_width_validation;
      case "cell: sizes" test_cell_sizes;
      case "cell: validation" test_cell_validation;
      case "cell: input cap scaling" test_input_cap_scales;
      case "cell: inverter DC transfer" test_inverter_dc_transfer;
      case "cell: inverter transient delay" test_inverter_transient_delay;
      case "cell: two-stage chain" test_chain_propagates;
    ]
    @ qcheck_tests )
