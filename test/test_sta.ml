open Helpers
open Sta

let proc = Device.Process.c13
let th = Device.Process.thresholds proc

(* A small characterized library shared by the STA tests. *)
let library =
  lazy
    (let grid cell =
       let cin = Device.Cell.input_cap proc cell in
       {
         Liberty.Characterize.slews = [| 30e-12; 120e-12; 300e-12 |];
         loads = [| 0.5 *. cin; 4.0 *. cin; 16.0 *. cin |];
       }
     in
     List.map
       (fun cell ->
         Liberty.Characterize.run ~grid:(grid cell) ~dt:1e-12 proc cell)
       Device.Cell.[ inv_x1; inv_x4; inv_x16; inv_x64 ])

(* ------------------------------------------------------------------ *)
(* Netlist                                                             *)

let two_stage () =
  let n = Netlist.create () in
  Netlist.input n "a";
  Netlist.gate n ~cell:"INVx1" ~name:"u1" ~input:"a" ~output:"b";
  Netlist.gate n ~cell:"INVx4" ~name:"u2" ~input:"b" ~output:"c";
  Netlist.output n "c";
  n

let test_netlist_shape () =
  let n = two_stage () in
  Alcotest.(check (list string)) "inputs" [ "a" ] (Netlist.inputs n);
  Alcotest.(check (list string)) "outputs" [ "c" ] (Netlist.outputs n);
  Alcotest.(check int) "instances" 2 (List.length (Netlist.instances n));
  (match Netlist.driver_of n "b" with
  | `Gate i -> Alcotest.(check string) "driver" "u1" i.Netlist.name
  | `Input -> Alcotest.fail "b is gate-driven");
  check_true "a is input" (Netlist.driver_of n "a" = `Input);
  Alcotest.(check int) "receivers of b" 1
    (List.length (Netlist.receivers_of n "b"))

let test_netlist_double_driver_rejected () =
  let n = two_stage () in
  Alcotest.check_raises "double drive"
    (Invalid_argument "Netlist.gate: net already driven: b") (fun () ->
      Netlist.gate n ~cell:"INVx1" ~name:"u3" ~input:"c" ~output:"b")

let test_topological_order () =
  let n = two_stage () in
  let order = Netlist.topological_nets n in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: rest -> if x = y then i else go (i + 1) rest
    in
    go 0 order
  in
  check_true "a before b" (pos "a" < pos "b");
  check_true "b before c" (pos "b" < pos "c")

let test_cycle_detected () =
  let n = Netlist.create () in
  Netlist.gate n ~cell:"INVx1" ~name:"u1" ~input:"x" ~output:"y";
  Netlist.gate n ~cell:"INVx1" ~name:"u2" ~input:"y" ~output:"x";
  match Netlist.topological_nets n with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected cycle failure"

let test_inverter_chain_builder () =
  (* A chain wired gate by gate, as the CLI builds its demo design: the
     last net is driven by the last stage and nets order along the
     chain. *)
  let n = Netlist.create () in
  Netlist.input n "in";
  let out =
    List.fold_left
      (fun (k, current) cell ->
        let next = Printf.sprintf "p.n%d" k in
        Netlist.gate n ~cell ~name:(Printf.sprintf "p.u%d" k) ~input:current
          ~output:next;
        (k + 1, next))
      (1, "in")
      [ "INVx1"; "INVx4"; "INVx16" ]
    |> snd
  in
  Alcotest.(check string) "final net" "p.n3" out;
  Alcotest.(check int) "three gates" 3 (List.length (Netlist.instances n));
  (match Netlist.driver_of n out with
  | `Gate g -> Alcotest.(check string) "last stage drives it" "INVx16" g.Netlist.cell
  | `Input -> Alcotest.fail "p.n3 is gate-driven");
  Alcotest.(check (list string))
    "chain order" [ "in"; "p.n1"; "p.n2"; "p.n3" ]
    (Netlist.topological_nets n)

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)

let stim = { Propagate.arrival = 100e-12; slew = 120e-12; dir = Waveform.Wave.Rising }

let test_nominal_propagation () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let timing net = List.assoc net r.Propagate.timings in
  let tb = timing "b" and tc = timing "c" in
  check_true "b after a" (tb.Propagate.at > stim.Propagate.arrival);
  check_true "c after b" (tc.Propagate.at > tb.Propagate.at);
  check_true "b falling" (tb.Propagate.dir = Waveform.Wave.Falling);
  check_true "c rising" (tc.Propagate.dir = Waveform.Wave.Rising);
  match r.Propagate.worst_output with
  | Some (net, t) ->
      Alcotest.(check string) "worst is c" "c" net;
      approx ~eps:1e-15 "worst matches" tc.Propagate.at t.Propagate.at
  | None -> Alcotest.fail "no worst output"

let test_missing_stimulus () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  match Propagate.run cfg n ~stimuli:[] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected missing-stimulus failure"

let test_unknown_cell () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = Netlist.create () in
  Netlist.input n "a";
  Netlist.gate n ~cell:"NAND9" ~name:"u1" ~input:"a" ~output:"b";
  match Propagate.run cfg n ~stimuli:[ ("a", stim) ] with
  | exception
      Runtime.Failure.(Error (Missing_cell { cell = "NAND9" })) ->
      ()
  | _ -> Alcotest.fail "expected typed missing-cell failure"

let test_load_increases_delay () =
  let cfg = Propagate.config (Lazy.force library) in
  let run extra =
    let n = Netlist.create () in
    Netlist.input n "a";
    Netlist.gate n ~cell:"INVx1" ~name:"u1" ~input:"a" ~output:"b";
    Netlist.output n "b";
    (match extra with Some l -> Netlist.set_load n "b" l | None -> ());
    let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
    (List.assoc "b" r.Propagate.timings).Propagate.at
  in
  let base = run None in
  let loaded = run (Some (Netlist.Lumped 20e-15)) in
  check_true "lumped load slows" (loaded > base)

let test_line_adds_wire_delay () =
  let cfg = Propagate.config (Lazy.force library) in
  let spec = Interconnect.Rcline.{ rtotal = 500.0; ctotal = 200e-15; nsegs = 8 } in
  let n = two_stage () in
  Netlist.set_load n "b" (Netlist.Line spec);
  let d, s = Propagate.wire_delay n "b" in
  check_true "elmore positive" (d > 0.0);
  check_true "slew addend positive" (s > 0.0);
  let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let n0 = two_stage () in
  let r0 = Propagate.run cfg n0 ~stimuli:[ ("a", stim) ] in
  check_true "wire slows the path"
    ((List.assoc "c" r.Propagate.timings).Propagate.at
    > (List.assoc "c" r0.Propagate.timings).Propagate.at)

let test_net_load_accounts_pins () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  let load = Propagate.net_load cfg n "b" in
  let x4cin =
    (Liberty.Libfile.find (Lazy.force library) "INVx4").Liberty.Nldm.input_cap
  in
  approx_rel ~rel:1e-9 "pin cap" x4cin load

let test_sta_vs_spice_chain () =
  (* The STA arrival for a two-stage chain should agree with a full
     transistor-level simulation within a few ps. *)
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let sta_at = (List.assoc "c" r.Propagate.timings).Propagate.at in
  (* Spice reference. *)
  let open Spice in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" and b = Circuit.node ckt "b" and c = Circuit.node ckt "c" in
  Device.Cell.instantiate proc Device.Cell.inv_x1 ~ckt ~input:a ~output:b
    ~vdd_node:vddn ~name:"u1";
  Device.Cell.instantiate proc Device.Cell.inv_x4 ~ckt ~input:b ~output:c
    ~vdd_node:vddn ~name:"u2";
  let trans = stim.Propagate.slew /. 0.8 in
  let t0 = stim.Propagate.arrival -. (trans /. 2.0) in
  Circuit.vsource ckt a
    (Source.ramp ~t0 ~v0:0.0 ~v1:proc.Device.Process.vdd ~trans);
  let config = { Transient.default_config with dt = 1e-12; tstop = 2e-9 } in
  let res = Transient.run ~config ckt in
  match Waveform.Wave.arrival (Transient.probe res "c") th with
  | Some spice_at -> approx ~eps:8e-12 "sta vs spice" spice_at sta_at
  | None -> Alcotest.fail "no spice crossing"

(* ------------------------------------------------------------------ *)
(* Noise-aware propagation                                             *)

let noisy_wave_for_pin nominal_at =
  (* A synthetic noisy waveform at net b (which falls for a rising
     primary input): the transition arrives 60 ps later than nominal
     with a bump on the way down. *)
  let open Waveform in
  let arrival = nominal_at +. 60e-12 in
  let r = Ramp.of_arrival_slew ~arrival ~slew:150e-12 ~dir:Wave.Falling th in
  let w = Ramp.to_waveform ~n:801 ~pad:500e-12 r in
  let ts = Wave.times w in
  Wave.create ts
    (Array.map2
       (fun t v ->
         if t > arrival -. 20e-12 && t < arrival +. 20e-12 then
           Float.min (th.Thresholds.vdd) (v +. 0.15)
         else v)
       ts (Wave.values w))

let test_noisy_pin_reduction () =
  let lib = Lazy.force library in
  let n = two_stage () in
  (* Nominal run to find the arrival at b. *)
  let cfg = Propagate.config lib in
  let r0 = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let at_b = (List.assoc "b" r0.Propagate.timings).Propagate.at in
  let wave = noisy_wave_for_pin at_b in
  let r1 = Propagate.run ~noisy_pins:[ ("b", wave) ] cfg n ~stimuli:[ ("a", stim) ] in
  let tb = List.assoc "b" r1.Propagate.timings in
  check_true "marked noisy" tb.Propagate.from_noisy;
  (* The noisy waveform is ~60 ps late: the downstream arrival must
     shift accordingly. *)
  let c0 = (List.assoc "c" r0.Propagate.timings).Propagate.at in
  let c1 = (List.assoc "c" r1.Propagate.timings).Propagate.at in
  check_true "downstream sees the delay" (c1 -. c0 > 30e-12 && c1 -. c0 < 120e-12)

let test_noisy_pin_technique_choice () =
  let lib = Lazy.force library in
  let n = two_stage () in
  let cfg_sgdp = Propagate.config ~technique:Eqwave.Sgdp.sgdp lib in
  let cfg_p1 = Propagate.config ~technique:Eqwave.Point_based.p1 lib in
  let r0 = Propagate.run cfg_sgdp n ~stimuli:[ ("a", stim) ] in
  let at_b = (List.assoc "b" r0.Propagate.timings).Propagate.at in
  let wave = noisy_wave_for_pin at_b in
  let run cfg =
    let r = Propagate.run ~noisy_pins:[ ("b", wave) ] cfg n ~stimuli:[ ("a", stim) ] in
    (List.assoc "c" r.Propagate.timings).Propagate.at
  in
  (* Different techniques give different but nearby answers. *)
  let a = run cfg_sgdp and b = run cfg_p1 in
  check_true "within 100 ps" (abs_float (a -. b) < 100e-12)

let test_config_ladder_composition () =
  let cfg = Propagate.config [] in
  Alcotest.(check (list string))
    "default: SGDP rung 0 + stock fallbacks"
    [ "SGDP"; "WLS5"; "LSF3"; "E4"; "P1" ]
    (Eqwave.Ladder.names cfg.Propagate.ladder);
  let cfg_p1 = Propagate.config ~technique:Eqwave.Point_based.p1 [] in
  match Eqwave.Ladder.names cfg_p1.Propagate.ladder with
  | "P1" :: rest ->
      check_true "stock rungs follow, deduped" (not (List.mem "P1" rest))
  | l -> Alcotest.failf "P1 not rung 0: %s" (String.concat "," l)

let test_noisy_pin_mapping_reported () =
  let lib = Lazy.force library in
  let n = two_stage () in
  let cfg = Propagate.config lib in
  let r0 = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let at_b = (List.assoc "b" r0.Propagate.timings).Propagate.at in
  let wave = noisy_wave_for_pin at_b in
  let r1 =
    Propagate.run ~noisy_pins:[ ("b", wave) ] cfg n ~stimuli:[ ("a", stim) ]
  in
  let tb = List.assoc "b" r1.Propagate.timings in
  check_true "marked noisy" tb.Propagate.from_noisy;
  (match tb.Propagate.mapping with
  | None | Some (Runtime.Failure.Mapping_degraded _) -> ()
  | Some f ->
      Alcotest.failf "unexpected mapping failure: %s" (Runtime.Failure.code f));
  (* Clean pins never carry a mapping record. *)
  check_true "clean pin unmapped"
    ((List.assoc "c" r1.Propagate.timings).Propagate.mapping = None)

let test_noisy_pin_exhaustion_last_resort () =
  let lib = Lazy.force library in
  let n = two_stage () in
  let cfg = Propagate.config lib in
  let r0 = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let at_b = (List.assoc "b" r0.Propagate.timings).Propagate.at in
  (* A flat waveform stuck below mid-rail: no rung can map it. *)
  let flat =
    Waveform.Wave.create
      [| 0.0; at_b; at_b +. 1e-9 |]
      [| 0.35; 0.35; 0.35 |]
  in
  let r1 =
    Propagate.run ~noisy_pins:[ ("b", flat) ] cfg n ~stimuli:[ ("a", stim) ]
  in
  let tb = List.assoc "b" r1.Propagate.timings in
  check_true "marked noisy" tb.Propagate.from_noisy;
  (match tb.Propagate.mapping with
  | Some (Runtime.Failure.Mapping_exhausted _) -> ()
  | Some f ->
      Alcotest.failf "expected exhaustion, got %s" (Runtime.Failure.code f)
  | None -> Alcotest.fail "exhaustion not recorded");
  check_true "timing stays finite"
    (Float.is_finite tb.Propagate.at && Float.is_finite tb.Propagate.slew);
  check_true "downstream still timed"
    (Float.is_finite (List.assoc "c" r1.Propagate.timings).Propagate.at);
  let s = Format.asprintf "%a" Propagate.pp_result r1 in
  check_true "report renders" (String.length s > 20)

let test_critical_path () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  Alcotest.(check (list string)) "path" [ "a"; "b"; "c" ]
    (Propagate.critical_path n r)

let test_pp_result () =
  let cfg = Propagate.config (Lazy.force library) in
  let n = two_stage () in
  let r = Propagate.run cfg n ~stimuli:[ ("a", stim) ] in
  let s = Format.asprintf "%a" Propagate.pp_result r in
  check_true "nonempty" (String.length s > 20)

let suite =
  ( "sta",
    [
      case "netlist: shape" test_netlist_shape;
      case "netlist: double driver" test_netlist_double_driver_rejected;
      case "netlist: topological order" test_topological_order;
      case "netlist: cycle detected" test_cycle_detected;
      case "netlist: chain builder" test_inverter_chain_builder;
      slow_case "propagate: nominal chain" test_nominal_propagation;
      slow_case "propagate: missing stimulus" test_missing_stimulus;
      slow_case "propagate: unknown cell" test_unknown_cell;
      slow_case "propagate: load slows" test_load_increases_delay;
      slow_case "propagate: wire delay" test_line_adds_wire_delay;
      slow_case "propagate: pin load" test_net_load_accounts_pins;
      slow_case "propagate: matches spice" test_sta_vs_spice_chain;
      slow_case "noisy pin: reduction applies" test_noisy_pin_reduction;
      slow_case "noisy pin: technique pluggable" test_noisy_pin_technique_choice;
      case "config: ladder composition" test_config_ladder_composition;
      slow_case "noisy pin: mapping reported" test_noisy_pin_mapping_reported;
      slow_case "noisy pin: exhaustion uses last resort"
        test_noisy_pin_exhaustion_last_resort;
      slow_case "report: critical path" test_critical_path;
      slow_case "report: pp" test_pp_result;
    ] )
