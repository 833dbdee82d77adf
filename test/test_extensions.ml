(* Tests for the extension features: analytic edges/glitches, the
   NAND/NOR/BUF cells and unateness plumbing, process corners, slack
   constraints, and the worst-case alignment search. *)

open Helpers

let proc = Device.Process.c13
let th = Device.Process.thresholds proc
let vdd = proc.Device.Process.vdd

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)

let test_linear_edge () =
  let f = Edges.linear_edge ~t0:1.0 ~trans:2.0 ~v0:0.0 ~v1:1.0 in
  approx "before" 0.0 (f 0.5);
  approx "mid" 0.5 (f 2.0);
  approx "after" 1.0 (f 4.0)

let test_exponential_edge () =
  let f = Edges.exponential_edge ~t0:0.0 ~tau:1.0 ~v0:0.0 ~v1:1.0 in
  approx ~eps:1e-9 "one tau" (1.0 -. exp (-1.0)) (f 1.0);
  approx "before" 0.0 (f (-1.0))

let test_raised_cosine_edge () =
  let f = Edges.raised_cosine_edge ~t0:0.0 ~trans:1.0 ~v0:0.0 ~v1:2.0 in
  approx ~eps:1e-9 "midpoint" 1.0 (f 0.5);
  approx "ends" 2.0 (f 1.0);
  (* C1 at the ends: tiny slope near t0. *)
  check_true "flat start" (f 0.01 < 0.01)

let test_triangular_glitch () =
  let g = Edges.triangular_glitch ~t0:1.0 ~rise:1.0 ~fall:2.0 ~peak:0.6 in
  approx "peak" 0.6 (g 2.0);
  approx "outside" 0.0 (g 0.9);
  approx "outside2" 0.0 (g 4.1);
  approx ~eps:1e-9 "mid fall" 0.3 (g 3.0)

let test_decay_glitch () =
  let g = Edges.decay_glitch ~t0:0.0 ~tau:2.0 ~peak:1.0 in
  approx ~eps:1e-9 "decay" (exp (-1.0)) (g 2.0)

let test_superpose_clamp () =
  let f =
    Edges.clamp ~vdd:1.0
      (Edges.superpose [ (fun _ -> 0.8); (fun _ -> 0.8) ])
  in
  approx "clamped" 1.0 (f 0.0)

let test_noisy_edge_builder () =
  let glitch =
    Edges.triangular_glitch ~t0:1.05e-9 ~rise:30e-12 ~fall:50e-12
      ~peak:(-0.3)
  in
  let w =
    Edges.noisy_edge ~th ~arrival:1e-9 ~slew:150e-12
      ~dir:Waveform.Wave.Rising ~glitches:[ glitch ] ()
  in
  check_true "rising overall" (Waveform.Wave.direction w = Waveform.Wave.Rising);
  check_true "not monotone" (not (is_monotone ~eps:1e-6 w));
  (* All techniques should process this synthetic edge. *)
  let noiseless =
    Edges.noisy_edge ~th ~arrival:1e-9 ~slew:150e-12
      ~dir:Waveform.Wave.Rising ~glitches:[] ()
  in
  let out =
    Edges.noisy_edge ~th ~arrival:1.05e-9 ~slew:100e-12
      ~dir:Waveform.Wave.Falling ~glitches:[]
      ~span:(Waveform.Wave.t_start w, Waveform.Wave.t_end w) ()
  in
  let ctx =
    Eqwave.Technique.make_ctx ~th ~noisy_in:w ~noiseless_in:noiseless
      ~noiseless_out:out ()
  in
  List.iter
    (fun (tech : Eqwave.Technique.t) ->
      match tech.Eqwave.Technique.run ctx with
      | r ->
          check_true
            (tech.Eqwave.Technique.name ^ " sane")
            (abs_float (Waveform.Ramp.arrival r th -. 1e-9) < 200e-12)
      | exception Eqwave.Technique.Unsupported _ -> ())
    Eqwave.Registry.all

(* ------------------------------------------------------------------ *)
(* New cells                                                           *)

let run_cell cell ~input_rising =
  let open Spice in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc cell ~ckt ~input:a ~output:y ~vdd_node:vddn
    ~name:"dut";
  Circuit.capacitor ckt y (Circuit.gnd ckt) 10e-15;
  let v0, v1 = if input_rising then (0.0, vdd) else (vdd, 0.0) in
  Circuit.vsource ckt a (Source.ramp ~t0:0.2e-9 ~v0 ~v1 ~trans:150e-12);
  let config = { Transient.default_config with dt = 1e-12; tstop = 2.5e-9 } in
  let res = Transient.run ~config ckt in
  Transient.probe res "y"

let test_buffer_is_non_inverting () =
  check_true "sense" (not (Device.Cell.inverting Device.Cell.buf_x16));
  let y = run_cell Device.Cell.buf_x16 ~input_rising:true in
  check_true "output rises" (Waveform.Wave.direction y = Waveform.Wave.Rising)

let test_buffer_has_bigger_delay_than_inverter () =
  let arrival w = Option.get (Waveform.Wave.arrival w th) in
  let buf = run_cell Device.Cell.buf_x16 ~input_rising:true in
  let inv = run_cell Device.Cell.inv_x16 ~input_rising:true in
  check_true "two stages are slower" (arrival buf > arrival inv)

let test_nand2_inverts () =
  (* With pin B tied high the NAND acts as an inverter. *)
  let cell = Device.Cell.nand2 proc ~drive:4 in
  check_true "sense" (Device.Cell.inverting cell);
  let y = run_cell cell ~input_rising:true in
  check_true "falls" (Waveform.Wave.direction y = Waveform.Wave.Falling);
  approx ~eps:0.02 "full swing low" 0.0
    (Waveform.Wave.value_at y (Waveform.Wave.t_end y))

let test_nor2_inverts () =
  let cell = Device.Cell.nor2 proc ~drive:4 in
  let y = run_cell cell ~input_rising:false in
  check_true "rises" (Waveform.Wave.direction y = Waveform.Wave.Rising);
  approx ~eps:0.02 "full swing high" vdd
    (Waveform.Wave.value_at y (Waveform.Wave.t_end y))

let test_stack_weaker_than_inverter () =
  (* NOR2(d) uses two series PMOS of width 2d; an inverter of drive 2d
     has a single PMOS of that same width, so pulling up through the
     stack must be slower than the single device. *)
  let arrival w = Option.get (Waveform.Wave.arrival w th) in
  let nor = run_cell (Device.Cell.nor2 proc ~drive:4) ~input_rising:false in
  let inv = run_cell (Device.Cell.inv proc ~drive:8) ~input_rising:false in
  check_true "stack slower" (arrival nor > arrival inv)

(* ------------------------------------------------------------------ *)
(* Corners                                                             *)

let corner_delay proc_corner =
  let open Spice in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc_corner ckt in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc_corner (Device.Cell.inv proc_corner ~drive:1)
    ~ckt ~input:a ~output:y ~vdd_node:vddn ~name:"u";
  Circuit.capacitor ckt y (Circuit.gnd ckt) 8e-15;
  Circuit.vsource ckt a (Source.ramp ~t0:0.2e-9 ~v0:0.0 ~v1:vdd ~trans:150e-12);
  let config = { Transient.default_config with dt = 1e-12; tstop = 1.5e-9 } in
  let res = Transient.run ~config ckt in
  let wa = Transient.probe res "a" and wy = Transient.probe res "y" in
  Option.get (Waveform.Wave.arrival wy th)
  -. Option.get (Waveform.Wave.arrival wa th)

let test_corner_ordering () =
  let fast = corner_delay Device.Process.c13_fast in
  let typ = corner_delay Device.Process.c13 in
  let slow = corner_delay Device.Process.c13_slow in
  check_true "fast < typ" (fast < typ);
  check_true "typ < slow" (typ < slow)

let test_corner_scaling () =
  let c = Device.Process.scale_corner ~name:"x" ~drive:2.0 ~vth:1.0
      Device.Process.c13 in
  approx_rel ~rel:1e-9 "ksat scaled"
    (2.0 *. Device.Process.c13.Device.Process.nmos.Device.Process.ksat)
    c.Device.Process.nmos.Device.Process.ksat

(* ------------------------------------------------------------------ *)
(* Unateness plumbing                                                  *)

let mk_arc v =
  let t =
    Liberty.Nldm.table ~slews:[| 1e-11; 1e-10 |] ~loads:[| 1e-15; 1e-14 |]
      ~values:[| [| v; v |]; [| v; v |] |]
  in
  { Liberty.Nldm.delay = t; trans = t }

let test_output_dir () =
  let inv_ct =
    { Liberty.Nldm.cell = "INVx1"; input_cap = 1e-15; inverting = true;
      out_rise = mk_arc 1.0; out_fall = mk_arc 2.0 }
  in
  let buf_ct = { inv_ct with Liberty.Nldm.cell = "BUFx1"; inverting = false } in
  let open Waveform.Wave in
  check_true "inv flips" (Liberty.Nldm.output_dir inv_ct Rising = Falling);
  check_true "buf keeps" (Liberty.Nldm.output_dir buf_ct Rising = Rising);
  (* Rising input on an inverter exercises the falling-output arc. *)
  let d, _ = Liberty.Nldm.gate_delay inv_ct ~input_dir:Rising ~slew:5e-11 ~load:5e-15 in
  approx "fall arc" 2.0 d;
  let d, _ = Liberty.Nldm.gate_delay buf_ct ~input_dir:Rising ~slew:5e-11 ~load:5e-15 in
  approx "rise arc" 1.0 d

let test_libfile_sense_roundtrip () =
  let ct =
    { Liberty.Nldm.cell = "BUFx4"; input_cap = 2e-15; inverting = false;
      out_rise = mk_arc 1.0; out_fall = mk_arc 2.0 }
  in
  match Liberty.Libfile.of_string (Liberty.Libfile.to_string [ ct ]) with
  | [ back ] -> check_true "sense preserved" (not back.Liberty.Nldm.inverting)
  | _ -> Alcotest.fail "roundtrip failed"

let test_sta_buffer_direction () =
  (* STA through a buffer must keep the edge direction. *)
  let lib =
    [
      { Liberty.Nldm.cell = "BUFx4"; input_cap = 2e-15; inverting = false;
        out_rise = mk_arc 10e-12; out_fall = mk_arc 20e-12 };
    ]
  in
  let n = Sta.Netlist.create () in
  Sta.Netlist.input n "a";
  Sta.Netlist.gate n ~cell:"BUFx4" ~name:"u1" ~input:"a" ~output:"y";
  Sta.Netlist.output n "y";
  let cfg = Sta.Propagate.config lib in
  let stim =
    { Sta.Propagate.arrival = 0.0; slew = 100e-12; dir = Waveform.Wave.Rising }
  in
  let r = Sta.Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let ty = List.assoc "y" r.Sta.Propagate.timings in
  check_true "still rising" (ty.Sta.Propagate.dir = Waveform.Wave.Rising);
  approx ~eps:1e-15 "rise arc delay" 10e-12 ty.Sta.Propagate.at

(* ------------------------------------------------------------------ *)
(* Constraints / slack                                                 *)

let slack_fixture () =
  let lib =
    [
      { Liberty.Nldm.cell = "INVx1"; input_cap = 1e-15; inverting = true;
        out_rise = mk_arc 30e-12; out_fall = mk_arc 50e-12 };
    ]
  in
  let n = Sta.Netlist.create () in
  Sta.Netlist.input n "a";
  Sta.Netlist.gate n ~cell:"INVx1" ~name:"u1" ~input:"a" ~output:"b";
  Sta.Netlist.gate n ~cell:"INVx1" ~name:"u2" ~input:"b" ~output:"c";
  Sta.Netlist.output n "c";
  let cfg = Sta.Propagate.config lib in
  let stim =
    { Sta.Propagate.arrival = 0.0; slew = 50e-12; dir = Waveform.Wave.Rising }
  in
  (n, Sta.Propagate.run cfg n ~stimuli:[ ("a", stim) ])

let test_slack_met () =
  let n, r = slack_fixture () in
  (* Path delay = 50 + 30 = 80 ps; a 100 ps requirement leaves 20 ps. *)
  let report = Sta.Constraints.analyze n r ~required:[ ("c", 100e-12) ] in
  check_true "met" (Sta.Constraints.met report);
  (match report.Sta.Constraints.worst with
  | Some (_, s) -> approx ~eps:1e-15 "slack 20ps" 20e-12 s
  | None -> Alcotest.fail "no worst");
  (* Back-propagated: slack is uniform along a single path. *)
  List.iter
    (fun (_, s) -> approx ~eps:1e-15 "uniform" 20e-12 s)
    report.Sta.Constraints.per_net

let test_slack_violated () =
  let n, r = slack_fixture () in
  let report = Sta.Constraints.analyze n r ~required:[ ("c", 60e-12) ] in
  check_true "violated" (not (Sta.Constraints.met report));
  Alcotest.(check int) "three nets late" 3
    report.Sta.Constraints.violations

let test_slack_unknown_net () =
  let n, r = slack_fixture () in
  match Sta.Constraints.analyze n r ~required:[ ("zz", 1.0) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* ------------------------------------------------------------------ *)
(* Worst-case search                                                   *)

let test_worst_case_search () =
  let scen = Noise.Scenario.config_i in
  let r = Noise.Worst_case.search ~coarse:8 ~refine:4 scen in
  (* The worst delay cannot be below nominal (no-interaction cases
     exist in the window), and the search must stay inside it. *)
  check_true "worse than nominal" (r.Noise.Worst_case.delay >= r.Noise.Worst_case.nominal_delay -. 1e-12);
  let taus = Noise.Scenario.taus (Noise.Scenario.with_cases scen 2) in
  let lo = taus.(0) and hi = taus.(1) in
  let margin = 0.2 *. (hi -. lo) in
  check_true "inside window"
    (r.Noise.Worst_case.tau >= lo -. margin && r.Noise.Worst_case.tau <= hi +. margin);
  check_true "probe budget" (r.Noise.Worst_case.probes <= 8 + (2 * 4) + 4)

let test_worst_case_beats_average () =
  (* The refined worst case should be at least as bad as every coarse
     probe of a small sweep. *)
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_i 6 in
  let noiseless = Noise.Injection.noiseless scen in
  let r = Noise.Worst_case.search ~coarse:6 ~refine:3 scen in
  Array.iter
    (fun tau ->
      let d = Noise.Worst_case.delay_at scen ~noiseless ~tau in
      check_true "dominates sweep" (r.Noise.Worst_case.delay >= d -. 1e-12))
    (Noise.Scenario.taus scen)

(* ------------------------------------------------------------------ *)
(* Buffer-receiver (non-overlap) scenario                              *)

let test_buffer_scenario_runs () =
  let scen = Noise.Scenario.config_i_buffer in
  let r = Noise.Injection.noiseless scen in
  (* Non-inverting receiver: output direction matches the input. *)
  check_true "far rising"
    (Waveform.Wave.direction r.Noise.Injection.far = Waveform.Wave.Rising);
  check_true "rcv also rising"
    (Waveform.Wave.direction r.Noise.Injection.rcv = Waveform.Wave.Rising);
  let case =
    Noise.Eval.evaluate_case scen ~noiseless:r ~tau:scen.Noise.Scenario.victim_t0
  in
  check_true "positive delay" (case.Noise.Eval.delay_ref > 0.0);
  (* SGDP must produce a result on the two-stage receiver. *)
  let sgdp =
    List.find (fun m -> m.Noise.Eval.technique = "SGDP") case.Noise.Eval.metrics
  in
  check_true "sgdp ok" (sgdp.Noise.Eval.delay_err <> None)

let qcheck_tests =
  [
    qcase ~count:25 "edges: composite noisy edge stays within rails"
      QCheck2.Gen.(pair (float_range (-0.5) 0.5) (float_range 10e-12 200e-12))
      (fun (peak, width) ->
        let g =
          Edges.triangular_glitch ~t0:1.0e-9 ~rise:width ~fall:width
            ~peak
        in
        let w =
          Edges.noisy_edge ~th ~arrival:1e-9 ~slew:120e-12
            ~dir:Waveform.Wave.Rising ~glitches:[ g ] ()
        in
        Array.for_all (fun v -> v >= -1e-9 && v <= vdd +. 1e-9)
          (Waveform.Wave.values w));
    qcase ~count:15 "edges: raised-cosine edge is monotone"
      QCheck2.Gen.(float_range 20e-12 400e-12)
      (fun trans ->
        let w =
          Edges.sample ~t0:0.0 ~t1:(2.0 *. trans)
            (Edges.raised_cosine_edge ~t0:(0.5 *. trans) ~trans
               ~v0:0.0 ~v1:vdd)
        in
        is_monotone w);
  ]

let suite =
  ( "extensions",
    [
      case "edges: linear" test_linear_edge;
      case "edges: exponential" test_exponential_edge;
      case "edges: raised cosine" test_raised_cosine_edge;
      case "edges: triangular glitch" test_triangular_glitch;
      case "edges: decay glitch" test_decay_glitch;
      case "edges: superpose/clamp" test_superpose_clamp;
      case "edges: noisy edge through techniques" test_noisy_edge_builder;
      case "cells: buffer non-inverting" test_buffer_is_non_inverting;
      case "cells: buffer slower than inverter" test_buffer_has_bigger_delay_than_inverter;
      case "cells: nand2 inverts" test_nand2_inverts;
      case "cells: nor2 inverts" test_nor2_inverts;
      case "cells: stack weaker" test_stack_weaker_than_inverter;
      case "corners: delay ordering" test_corner_ordering;
      case "corners: scaling" test_corner_scaling;
      case "nldm: output_dir and arcs" test_output_dir;
      case "libfile: sense roundtrip" test_libfile_sense_roundtrip;
      case "sta: buffer keeps direction" test_sta_buffer_direction;
      case "slack: met" test_slack_met;
      case "slack: violated" test_slack_violated;
      case "slack: unknown net" test_slack_unknown_net;
      slow_case "worst-case: search" test_worst_case_search;
      slow_case "worst-case: dominates sweep" test_worst_case_beats_average;
      slow_case "buffer scenario: end to end" test_buffer_scenario_runs;
    ]
    @ qcheck_tests )
