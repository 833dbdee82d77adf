(* Tests for the deeper substrate additions: AWE moment matching, the
   Devgan noise bound, netlist file IO, and the Monte-Carlo driver. *)

open Helpers
open Interconnect

(* ------------------------------------------------------------------ *)
(* AWE                                                                 *)

let single_rc ~r ~c () =
  let open Spice in
  let ckt = Circuit.create () in
  let src = Circuit.node ckt "in" and out = Circuit.node ckt "out" in
  Circuit.vsource ckt src (Source.dc 1.0);
  Circuit.resistor ckt src out r;
  Circuit.capacitor ckt out (Circuit.gnd ckt) c;
  ckt

let test_awe_single_rc_moments () =
  (* H(s) = 1/(1 + sRC): moments 1, -RC, (RC)^2, -(RC)^3 ... *)
  let r = 1e3 and c = 1e-12 in
  let ckt = single_rc ~r ~c () in
  let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:"out" ~order:3 in
  let rc = r *. c in
  approx_rel ~rel:1e-6 "m0" 1.0 ms.(0);
  approx_rel ~rel:1e-6 "m1" (-.rc) ms.(1);
  approx_rel ~rel:1e-6 "m2" (rc *. rc) ms.(2);
  approx_rel ~rel:1e-6 "m3" (-.(rc ** 3.0)) ms.(3)

let test_awe_single_pole_exact () =
  let r = 1e3 and c = 1e-12 in
  let ckt = single_rc ~r ~c () in
  let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:"out" ~order:3 in
  let m = Awe.pade ~q:1 ms in
  approx_rel ~rel:1e-6 "pole" (-1.0 /. (r *. c)) m.Awe.poles.(0);
  approx_rel ~rel:1e-6 "delay = RC ln2" (r *. c *. log 2.0) (Awe.delay m)

let ladder_circuit spec =
  let open Spice in
  let ckt = Circuit.create () in
  let near = Circuit.node ckt "in" in
  Circuit.vsource ckt near (Source.dc 1.0);
  let far = Rcline.build ckt ~prefix:"w" ~near spec in
  (ckt, Circuit.node_name ckt far)

let line_spec = Rcline.{ rtotal = 200.0; ctotal = 200e-15; nsegs = 8 }

let test_awe_ladder_elmore_crosscheck () =
  let ckt, far = ladder_circuit line_spec in
  let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:far ~order:3 in
  approx_rel ~rel:1e-4 "m1 = -elmore"
    (Rcline.elmore_discrete line_spec)
    (-.ms.(1))

let test_awe_two_pole_vs_spice () =
  (* The 2-pole model's 50% delay must sit within a few percent of the
     transient simulation of the same ladder. *)
  let ckt, far = ladder_circuit line_spec in
  let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:far ~order:5 in
  let model = Awe.pade ~q:2 ms in
  Alcotest.(check int) "two poles" 2 (Array.length model.Awe.poles);
  Array.iter (fun p -> check_true "stable" (p < 0.0)) model.Awe.poles;
  let awe_delay = Awe.delay model in
  (* Spice reference with a sharp step. *)
  let open Spice in
  let ckt2 = Circuit.create () in
  let near = Circuit.node ckt2 "in" in
  Circuit.vsource ckt2 near (Source.pwl [ (0.0, 0.0); (1e-14, 1.0) ]);
  let far2 = Rcline.build ckt2 ~prefix:"w" ~near line_spec in
  let config = { Transient.default_config with dt = 0.05e-12; tstop = 200e-12 } in
  let res = Transient.run ~config ckt2 in
  let w = Transient.probe res (Circuit.node_name ckt2 far2) in
  match Waveform.Wave.first_crossing w 0.5 with
  | Some t50 -> approx_rel ~rel:0.08 "awe vs spice" t50 awe_delay
  | None -> Alcotest.fail "no spice crossing"

let test_awe_step_response_shape () =
  let ckt, far = ladder_circuit line_spec in
  let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:far ~order:5 in
  let m = Awe.pade ms in
  approx ~eps:1e-6 "starts near 0" 0.0 (Awe.step_response m 0.0);
  approx_rel ~rel:1e-3 "settles at dc" m.Awe.dc
    (Awe.step_response m 1e-6);
  check_true "negative time is zero" (Awe.step_response m (-1.0) = 0.0)

let test_awe_coupled_transfer () =
  (* Aggressor-to-victim transfer on the coupled bus: DC gain must be
     ~0 (capacitive coupling only), first moment non-zero. *)
  let open Spice in
  let ckt = Circuit.create () in
  let agg = Circuit.node ckt "agg" and vic = Circuit.node ckt "vic" in
  Circuit.vsource ckt agg (Source.dc 1.0);
  Circuit.resistor ckt vic (Circuit.gnd ckt) 500.0;
  let spec = Coupled.make ~line:line_spec ~nlines:2 ~cm_total:100e-15 in
  let fars = Coupled.build ckt ~prefix:"bus" ~nears:[ agg; vic ] spec in
  let far_vic = Circuit.node_name ckt (List.nth fars 1) in
  let ms = Awe.moments_of_circuit ckt ~input:"agg" ~output:far_vic ~order:2 in
  check_true "near-zero dc coupling" (abs_float ms.(0) < 1e-6);
  check_true "nonzero first moment" (abs_float ms.(1) > 1e-15)

let test_awe_rejects_nonlinear () =
  let open Spice in
  let ckt = Circuit.create () in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Circuit.vsource ckt a (Source.dc 1.0);
  Circuit.mosfet ckt ~name:"m" ~g:a ~d:y ~s:(Circuit.gnd ckt)
    (Device.Mosfet.nmos Device.Process.c13 ~width:1e-6);
  match Awe.moments_of_circuit ckt ~input:"a" ~output:"y" ~order:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_awe_unknown_names () =
  let ckt = single_rc ~r:1e3 ~c:1e-12 () in
  match Awe.moments_of_circuit ckt ~input:"zzz" ~output:"out" ~order:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown-node rejection"

(* ------------------------------------------------------------------ *)
(* Devgan bound                                                        *)

let test_devgan_bounds_simulation () =
  (* The bound must dominate the simulated glitch peak on the coupled
     line with a resistive holding driver. *)
  let rdrv = 500.0 in
  let spec = Rcline.{ rtotal = 100.0; ctotal = 20e-15; nsegs = 4 } in
  let cm_total = 60e-15 in
  let slew_rate = 1.0 /. 100e-12 in
  let bound =
    Noise_bound.line_bound ~driver_resistance:rdrv ~line:spec ~cm_total
      ~aggressor_slew_rate:slew_rate
  in
  let open Spice in
  let ckt = Circuit.create () in
  let agg = Circuit.node ckt "agg" and drv = Circuit.node ckt "drv" in
  Circuit.vsource ckt agg (Source.ramp ~t0:10e-12 ~v0:0.0 ~v1:1.0 ~trans:100e-12);
  Circuit.resistor ckt drv (Circuit.gnd ckt) rdrv;
  let c = Coupled.make ~line:spec ~nlines:2 ~cm_total in
  let fars = Coupled.build ckt ~prefix:"b" ~nears:[ agg; drv ] c in
  let far = Circuit.node_name ckt (List.nth fars 1) in
  let config = { Transient.default_config with dt = 0.2e-12; tstop = 500e-12 } in
  let res = Transient.run ~config ckt in
  let peak =
    Array.fold_left Float.max neg_infinity
      (Waveform.Wave.values (Transient.probe res far))
  in
  check_true "bound dominates" (bound >= peak);
  check_true "bound not absurd" (bound < 20.0 *. peak)

(* ------------------------------------------------------------------ *)
(* Netlist IO                                                          *)

let netlist_text =
  "# demo\n\
   input in\n\
   gate u1 INVx1 in n1\n\
   gate u2 INVx4 n1 bus\n\
   line bus 25.5 1.44e-14 6\n\
   cap n1 2e-15\n\
   gate u3 INVx16 bus out\n\
   output out\n"

let test_netlist_parse () =
  let n = Sta.Netlist_io.of_string netlist_text in
  Alcotest.(check (list string)) "inputs" [ "in" ] (Sta.Netlist.inputs n);
  Alcotest.(check (list string)) "outputs" [ "out" ] (Sta.Netlist.outputs n);
  Alcotest.(check int) "gates" 3 (List.length (Sta.Netlist.instances n));
  (match Sta.Netlist.load_of n "bus" with
  | Some (Sta.Netlist.Line spec) ->
      approx_rel ~rel:1e-9 "rtotal" 25.5 spec.Interconnect.Rcline.rtotal
  | _ -> Alcotest.fail "bus line load missing");
  match Sta.Netlist.load_of n "n1" with
  | Some (Sta.Netlist.Lumped c) -> approx_rel ~rel:1e-9 "cap" 2e-15 c
  | _ -> Alcotest.fail "n1 cap missing"

let test_netlist_roundtrip () =
  let n = Sta.Netlist_io.of_string netlist_text in
  let n2 = Sta.Netlist_io.of_string (Sta.Netlist_io.to_string n) in
  Alcotest.(check (list string)) "nets" (Sta.Netlist.nets n) (Sta.Netlist.nets n2);
  Alcotest.(check int) "gates" 3 (List.length (Sta.Netlist.instances n2))

let test_netlist_errors () =
  let bad cases =
    List.iter
      (fun text ->
        match Sta.Netlist_io.of_string text with
        | exception Failure _ -> ()
        | _ -> Alcotest.failf "accepted %S" text)
      cases
  in
  bad [ "bogus x\n"; "gate u1 INVx1 a\n"; "line n abc 1e-15 4\n";
        "input a\ninput a\n" ]

let test_netlist_file_io () =
  let path = Filename.temp_file "noisy_sta" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc
        (Sta.Netlist_io.to_string (Sta.Netlist_io.of_string netlist_text));
      close_out oc;
      let n = Sta.Netlist_io.load path in
      Alcotest.(check int) "gates" 3 (List.length (Sta.Netlist.instances n)))

(* ------------------------------------------------------------------ *)
(* Monte Carlo                                                         *)

let test_montecarlo_deterministic () =
  let scen = Noise.Scenario.config_i in
  let techs = [ Eqwave.Point_based.p1 ] in
  let s1, _ = Noise.Montecarlo.run ~seed:7 ~samples:3 ~techniques:techs scen in
  let s2, _ = Noise.Montecarlo.run ~seed:7 ~samples:3 ~techniques:techs scen in
  List.iter2
    (fun a b ->
      approx ~eps:0.0 "same tau" a.Noise.Montecarlo.tau b.Noise.Montecarlo.tau;
      check_true "same polarity"
        (a.Noise.Montecarlo.aggressor_rising = b.Noise.Montecarlo.aggressor_rising))
    s1 s2

let test_montecarlo_summary_shape () =
  let scen = Noise.Scenario.config_i in
  let techs = [ Eqwave.Point_based.p1; Eqwave.Sgdp.sgdp ] in
  let samples, summaries =
    Noise.Montecarlo.run ~seed:1 ~samples:4 ~techniques:techs scen
  in
  Alcotest.(check int) "samples" 4 (List.length samples);
  Alcotest.(check int) "summaries" 2 (List.length summaries);
  List.iter
    (fun s ->
      check_true "percentiles ordered"
        (s.Noise.Montecarlo.p50_ps <= s.Noise.Montecarlo.p95_ps +. 1e-9
        && s.Noise.Montecarlo.p95_ps <= s.Noise.Montecarlo.max_ps +. 1e-9))
    summaries

let qcheck_tests =
  [
    qcase ~count:15 "awe: single-RC delay matches RC ln2 for random R, C"
      QCheck2.Gen.(pair (float_range 10.0 10e3) (float_range 1e-15 10e-12))
      (fun (r, c) ->
        let ckt = single_rc ~r ~c () in
        let ms = Awe.moments_of_circuit ckt ~input:"in" ~output:"out" ~order:3 in
        let m = Awe.pade ~q:1 ms in
        let expected = r *. c *. log 2.0 in
        abs_float (Awe.delay m -. expected) < 0.02 *. expected);
  ]

let suite =
  ( "substrate",
    [
      case "awe: single-RC moments" test_awe_single_rc_moments;
      case "awe: single-pole exact" test_awe_single_pole_exact;
      case "awe: ladder elmore crosscheck" test_awe_ladder_elmore_crosscheck;
      case "awe: two-pole vs spice" test_awe_two_pole_vs_spice;
      case "awe: step response shape" test_awe_step_response_shape;
      case "awe: coupled transfer" test_awe_coupled_transfer;
      case "awe: rejects nonlinear" test_awe_rejects_nonlinear;
      case "awe: unknown names" test_awe_unknown_names;
      case "devgan: dominates simulation" test_devgan_bounds_simulation;
      case "netlist io: parse" test_netlist_parse;
      case "netlist io: roundtrip" test_netlist_roundtrip;
      case "netlist io: errors" test_netlist_errors;
      case "netlist io: files" test_netlist_file_io;
      slow_case "montecarlo: deterministic" test_montecarlo_deterministic;
      slow_case "montecarlo: summary shape" test_montecarlo_summary_shape;
    ]
    @ qcheck_tests )
