open Helpers
open Interconnect

let spec = Rcline.{ rtotal = 100.0; ctotal = 100e-15; nsegs = 8 }

(* ------------------------------------------------------------------ *)
(* Rcline                                                              *)

let test_spec_of_per_section () =
  (* Figure 1's per-section values, R = 8.5 ohm and C = 4.8 fF, come
     back out of a three-section ladder built from their totals. *)
  let open Spice in
  let s = Rcline.{ rtotal = 25.5; ctotal = 14.4e-15; nsegs = 3 } in
  let ckt = Circuit.create () in
  let near = Circuit.node ckt "w.0" in
  ignore (Rcline.build ckt ~prefix:"w" ~near s);
  let rs = Circuit.resistors ckt in
  Alcotest.(check int) "sections" 3 (List.length rs);
  List.iter (fun (_, _, r) -> approx ~eps:1e-12 "r per section" 8.5 r) rs;
  let far = Circuit.node ckt "w.3" in
  List.iter
    (fun (a, _, c) ->
      let per_section = if a = near || a = far then 2.4e-15 else 4.8e-15 in
      approx ~eps:1e-27 "c per section" per_section c)
    (Circuit.capacitors ckt)

let test_section_nodes () =
  let open Spice in
  let ckt = Circuit.create () in
  let near = Circuit.node ckt "w.0" in
  let far = Rcline.build ckt ~prefix:"w" ~near spec in
  let nodes = Circuit.node_names ckt in
  Alcotest.(check int) "count" 9 (List.length nodes);
  Alcotest.(check string) "first" "w.0" (List.hd nodes);
  Alcotest.(check string) "last" "w.8" (List.nth nodes 8);
  Alcotest.(check string) "far end" "w.8" (Circuit.node_name ckt far)

let test_elmore_closed_form () =
  approx ~eps:1e-15 "RC/2" (100.0 *. 100e-15 /. 2.0) (Rcline.elmore spec)

let test_elmore_discrete_converges () =
  (* With half-capacitance end boundaries the ladder's Elmore delay is
     exactly RC/2 for every segment count -- the pi discretization is
     moment-exact to first order. *)
  let continuous = Rcline.elmore spec in
  List.iter
    (fun nsegs ->
      approx_rel ~rel:1e-9 "exact first moment" continuous
        (Rcline.elmore_discrete { spec with Rcline.nsegs }))
    [ 1; 2; 3; 8; 64 ]

let test_validation () =
  Alcotest.check_raises "bad spec"
    (Invalid_argument "Rcline: nsegs must be >= 1") (fun () ->
      ignore (Rcline.elmore { spec with Rcline.nsegs = 0 }))

let test_build_conserves_totals () =
  let open Spice in
  let ckt = Circuit.create () in
  let near = Circuit.node ckt "near" in
  let _far = Rcline.build ckt ~prefix:"w" ~near spec in
  let rsum =
    List.fold_left (fun a (_, _, r) -> a +. r) 0.0 (Circuit.resistors ckt)
  in
  let csum =
    List.fold_left (fun a (_, _, c) -> a +. c) 0.0 (Circuit.capacitors ckt)
  in
  approx_rel ~rel:1e-9 "R conserved" spec.Rcline.rtotal rsum;
  approx_rel ~rel:1e-9 "C conserved" spec.Rcline.ctotal csum

let test_line_step_response () =
  (* Drive the ladder with an ideal step: the far-end 50% point of a
     distributed RC line sits near 0.69 * Elmore (within discretization
     error), and Elmore itself is an upper-bound-flavored estimate. *)
  let open Spice in
  let ckt = Circuit.create () in
  let near = Circuit.node ckt "near" in
  Circuit.vsource ckt near (Source.pwl [ (0.0, 0.0); (1e-12, 1.0) ]);
  let far = Rcline.build ckt ~prefix:"w" ~near spec in
  let config = { Transient.default_config with dt = 0.1e-12; tstop = 60e-12 } in
  let res = Transient.run ~config ckt in
  let w = Transient.probe res (Circuit.node_name ckt far) in
  match Waveform.Wave.first_crossing w 0.5 with
  | Some t50 ->
      let elmore = Rcline.elmore spec in
      (* 0.69 * 5 ps = 3.5 ps, allow generous band for 8 segments. *)
      check_true "t50 in elmore band"
        (t50 > 0.4 *. elmore && t50 < 1.1 *. elmore)
  | None -> Alcotest.fail "far end never crossed 50%"

(* ------------------------------------------------------------------ *)
(* Coupled                                                             *)

let test_coupled_validation () =
  Alcotest.check_raises "nlines"
    (Invalid_argument "Coupled.make: need at least 2 lines") (fun () ->
      ignore (Coupled.make ~line:spec ~nlines:1 ~cm_total:1e-15))

let test_coupled_distribution () =
  let c = Coupled.make ~line:spec ~nlines:2 ~cm_total:80e-15 in
  approx ~eps:1e-27 "per boundary" 10e-15 (Coupled.victim_coupling_per_boundary c)

let test_coupled_build () =
  let open Spice in
  let ckt = Circuit.create () in
  let n0 = Circuit.node ckt "drv0" and n1 = Circuit.node ckt "drv1" in
  let c = Coupled.make ~line:spec ~nlines:2 ~cm_total:80e-15 in
  let fars = Coupled.build ckt ~prefix:"bus" ~nears:[ n0; n1 ] c in
  Alcotest.(check int) "two far ends" 2 (List.length fars);
  (* Total capacitance: 2 lines' ground C plus the coupling C. *)
  let csum =
    List.fold_left (fun a (_, _, cv) -> a +. cv) 0.0 (Circuit.capacitors ckt)
  in
  approx_rel ~rel:1e-9 "cap budget"
    ((2.0 *. spec.Rcline.ctotal) +. 80e-15)
    csum

let test_coupled_noise_appears () =
  (* Step one line, hold the other via a resistor: the victim's far end
     must show a transient bump that decays back. *)
  let open Spice in
  let ckt = Circuit.create () in
  let agg = Circuit.node ckt "agg" and vic = Circuit.node ckt "vic" in
  Circuit.vsource ckt agg (Source.pwl [ (5e-12, 0.0); (25e-12, 1.0) ]);
  Circuit.resistor ckt vic (Circuit.gnd ckt) 200.0;
  let c = Coupled.make ~line:spec ~nlines:2 ~cm_total:80e-15 in
  let fars = Coupled.build ckt ~prefix:"bus" ~nears:[ agg; vic ] c in
  let far_vic = List.nth fars 1 in
  let config = { Transient.default_config with dt = 0.2e-12; tstop = 300e-12 } in
  let res = Transient.run ~config ckt in
  let w = Transient.probe res (Circuit.node_name ckt far_vic) in
  let peak = Array.fold_left Float.max neg_infinity (Waveform.Wave.values w) in
  check_true "bump seen" (peak > 0.05);
  check_true "decays"
    (abs_float (final_voltage res (Circuit.node_name ckt far_vic)) < 0.02)

let qcheck_tests =
  [
    qcase ~count:40 "elmore: discrete below continuous and converging"
      QCheck2.Gen.(int_range 1 40)
      (fun nsegs ->
        let s = { spec with Rcline.nsegs } in
        Rcline.elmore_discrete s <= Rcline.elmore s +. 1e-18);
  ]

let suite =
  ( "interconnect",
    [
      case "rcline: per-section spec" test_spec_of_per_section;
      case "rcline: section nodes" test_section_nodes;
      case "rcline: closed-form elmore" test_elmore_closed_form;
      case "rcline: discrete converges" test_elmore_discrete_converges;
      case "rcline: validation" test_validation;
      case "rcline: build conserves totals" test_build_conserves_totals;
      case "rcline: step response near elmore" test_line_step_response;
      case "coupled: validation" test_coupled_validation;
      case "coupled: Cm distribution" test_coupled_distribution;
      case "coupled: build budget" test_coupled_build;
      case "coupled: noise bump" test_coupled_noise_appears;
    ]
    @ qcheck_tests )
