open Helpers
open Noise

let th = Device.Process.thresholds Device.Process.c13

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

let test_config_values () =
  let c = Scenario.config_i in
  Alcotest.(check int) "one aggressor" 1 c.Scenario.n_aggressors;
  approx ~eps:1e-27 "coupling" 100e-15 c.Scenario.cm_total;
  approx ~eps:1e-15 "slew" 150e-12 c.Scenario.input_slew;
  approx ~eps:1e-15 "window" 1e-9 c.Scenario.window;
  Alcotest.(check int) "200 cases" 200 c.Scenario.cases;
  let c2 = Scenario.config_ii in
  Alcotest.(check int) "two aggressors" 2 c2.Scenario.n_aggressors;
  (* Config II lines are half as long. *)
  approx_rel ~rel:1e-9 "half R"
    (c.Scenario.line.Interconnect.Rcline.rtotal /. 2.0)
    c2.Scenario.line.Interconnect.Rcline.rtotal

let test_taus_span_window () =
  let c = Scenario.with_cases Scenario.config_i 11 in
  let taus = Scenario.taus c in
  Alcotest.(check int) "count" 11 (Array.length taus);
  approx ~eps:1e-15 "span" c.Scenario.window
    (taus.(10) -. taus.(0));
  (* strictly increasing *)
  for i = 0 to 9 do
    check_true "increasing" (taus.(i + 1) > taus.(i))
  done

(* The victim's line index is the bus number in its far-end node. *)
let test_victim_position () =
  check_true "config I victim first"
    (String.starts_with ~prefix:"bus0."
       (Scenario.victim_far_node Scenario.config_i));
  check_true "config II victim middle"
    (String.starts_with ~prefix:"bus1."
       (Scenario.victim_far_node Scenario.config_ii))

let test_build_circuit_shape () =
  let ckt, hints = Scenario.build Scenario.config_i ~aggressor_active:true ~tau:0.5e-9 in
  (* 2 chains x 4 inverters = 8 inverters = 16 MOSFETs. *)
  Alcotest.(check int) "mosfets" 16 (List.length (Spice.Circuit.mosfets ckt));
  (* 3 sources: vdd + 2 inputs. *)
  Alcotest.(check int) "sources" 3 (List.length (Spice.Circuit.vsources ckt));
  (* hints cover vdd and the logic levels. *)
  check_true "vdd hint" (List.mem_assoc "vdd" hints);
  check_true "victim far node hinted"
    (List.mem_assoc (Scenario.victim_far_node Scenario.config_i) hints)

let test_build_config_ii_shape () =
  let ckt, _ = Scenario.build Scenario.config_ii ~aggressor_active:true ~tau:0.5e-9 in
  Alcotest.(check int) "mosfets" 24 (List.length (Spice.Circuit.mosfets ckt));
  Alcotest.(check int) "sources" 4 (List.length (Spice.Circuit.vsources ckt))

(* The fingerprint keys the disk cache and the checkpoint journals:
   the pins keep their keys stable, and every rendered field moves it
   while the label and the sweep bookkeeping do not. *)
let test_scenario_fingerprint () =
  let fp = Scenario.fingerprint in
  Alcotest.(check string)
    "config I pinned"
    "scenario|c13|1|0x1.98p+4|0x1.036847569cd7ap-46|6|0x1.c25c268497682p-44|\
     0x1.49da7e361ce4cp-33|true|false|0x1.49da7e361ce4cp-30|\
     0x1.19799812dea11p-39|0x1.eec7bd512b572p-29|INVx16|INVx64"
    (fp Scenario.config_i);
  Alcotest.(check string)
    "config II pinned"
    "scenario|c13|2|0x1.98p+3|0x1.036847569cd7ap-47|6|0x1.c25c268497682p-44|\
     0x1.49da7e361ce4cp-33|true|false|0x1.49da7e361ce4cp-30|\
     0x1.19799812dea11p-39|0x1.eec7bd512b572p-29|INVx16|INVx64"
    (fp Scenario.config_ii);
  let base = Scenario.config_i in
  let line = base.Scenario.line in
  let differs what t =
    check_true (what ^ " changes the fingerprint") (fp t <> fp base)
  in
  let same what t =
    Alcotest.(check string) (what ^ " is not keyed") (fp base) (fp t)
  in
  let with_line l = { base with line = l } in
  let open Interconnect.Rcline in
  differs "proc" { base with proc = Device.Process.c13_fast };
  differs "n_aggressors" { base with n_aggressors = 2 };
  differs "line.rtotal" (with_line { line with rtotal = line.rtotal *. 2.0 });
  differs "line.ctotal" (with_line { line with ctotal = line.ctotal *. 2.0 });
  differs "line.nsegs" (with_line { line with nsegs = line.nsegs + 1 });
  differs "cm_total" { base with cm_total = base.cm_total *. 2.0 };
  differs "input_slew" { base with input_slew = base.input_slew *. 2.0 };
  differs "victim_rising" { base with victim_rising = not base.victim_rising };
  differs "aggressor_rising"
    { base with aggressor_rising = not base.aggressor_rising };
  differs "victim_t0" { base with victim_t0 = base.victim_t0 +. 1e-12 };
  differs "dt" { base with dt = base.dt *. 2.0 };
  differs "tstop" { base with tstop = base.tstop +. 1e-12 };
  differs "receiver" { base with receiver = Device.Cell.buf_x16 };
  differs "load" { base with load = Device.Cell.inv_x16 };
  same "name" { base with name = "renamed" };
  same "window" { base with window = base.window *. 2.0 };
  same "window_offset" { base with window_offset = 0.0 };
  same "cases" (Scenario.with_cases base 7)

(* ------------------------------------------------------------------ *)
(* Injection (simulation-backed; slow)                                 *)

let fast_scenario =
  (* Smaller tstop for test speed; the victim transition is early. *)
  { Scenario.config_i with Scenario.dt = 4e-12 }

let noiseless = lazy (Injection.noiseless fast_scenario)

let test_noiseless_transitions () =
  let r = Lazy.force noiseless in
  check_true "far rising"
    (Waveform.Wave.direction r.Injection.far = Waveform.Wave.Rising);
  check_true "rcv falling"
    (Waveform.Wave.direction r.Injection.rcv = Waveform.Wave.Falling);
  match (Waveform.Wave.arrival r.Injection.far th,
         Waveform.Wave.arrival r.Injection.rcv th) with
  | Some ti, Some ty ->
      let d = ty -. ti in
      check_true "receiver delay plausible" (d > 10e-12 && d < 300e-12)
  | _ -> Alcotest.fail "missing crossings"

let test_noiseless_monotone () =
  let r = Lazy.force noiseless in
  (* The noiseless victim waveform should be a clean monotone edge
     (tiny numerical wiggle allowed). *)
  check_true "monotone"
    (is_monotone ~eps:1e-3 r.Injection.far)

let test_noisy_differs () =
  let r0 = Lazy.force noiseless in
  let r1 = Injection.noisy fast_scenario ~tau:fast_scenario.Scenario.victim_t0 in
  let far1 = r1.Injection.far in
  let vs = Waveform.Wave.values far1 in
  let peak =
    Numerics.Stats.max_abs
      (Array.mapi
         (fun i t -> vs.(i) -. Waveform.Wave.value_at r0.Injection.far t)
         (Waveform.Wave.times far1))
  in
  check_true "visible coupling noise" (peak > 0.05)

let test_early_aggressor_no_effect_on_delay () =
  (* An aggressor firing 0.6 ns before the victim has settled out by
     the time the victim switches. *)
  let r0 = Lazy.force noiseless in
  let tau = fast_scenario.Scenario.victim_t0 -. 0.6e-9 in
  let r1 = Injection.noisy fast_scenario ~tau in
  match (Waveform.Wave.arrival r0.Injection.rcv th,
         Waveform.Wave.arrival r1.Injection.rcv th) with
  | Some a, Some b -> check_true "arrival barely moves" (abs_float (a -. b) < 10e-12)
  | _ -> Alcotest.fail "missing arrivals"

let test_receiver_response_matches_replay () =
  (* Feeding the recorded noiseless far waveform into the isolated
     receiver must reproduce the chain's receiver output closely. *)
  let r = Lazy.force noiseless in
  let out =
    Injection.receiver_response fast_scenario
      ~input:(Spice.Source.of_wave r.Injection.far)
      ~tstop:fast_scenario.Scenario.tstop
  in
  match (Waveform.Wave.arrival out th, Waveform.Wave.arrival r.Injection.rcv th) with
  | Some a, Some b -> approx ~eps:3e-12 "replay faithful" b a
  | _ -> Alcotest.fail "missing arrivals"

let test_ctx_of_runs () =
  let r0 = Lazy.force noiseless in
  let r1 = Injection.noisy fast_scenario ~tau:1.0e-9 in
  let ctx = Injection.ctx_of_runs fast_scenario ~noiseless:r0 ~noisy:r1 in
  Alcotest.(check int) "P default" 35 ctx.Eqwave.Technique.samples;
  check_true "direction" (Eqwave.Technique.direction ctx = Waveform.Wave.Rising)

(* ------------------------------------------------------------------ *)
(* Eval (slow)                                                         *)

let test_evaluate_case_all_techniques () =
  let r0 = Lazy.force noiseless in
  let case =
    Eval.evaluate_case fast_scenario ~noiseless:r0
      ~tau:fast_scenario.Scenario.victim_t0
  in
  Alcotest.(check int) "six rows" 6 (List.length case.Eval.metrics);
  check_true "replay fidelity < 2 ps"
    (abs_float case.Eval.chain_vs_replay < 2e-12);
  check_true "positive reference delay" (case.Eval.delay_ref > 0.0);
  List.iter
    (fun m ->
      match m.Eval.delay_err with
      | Some e -> check_true (m.Eval.technique ^ " bounded") (abs_float e < 100e-12)
      | None ->
          Alcotest.failf "%s failed: %s" m.Eval.technique
            (match m.Eval.failure with
            | Some f -> Runtime.Failure.to_string f
            | None -> "?"))
    case.Eval.metrics

let test_run_table_shape () =
  let scen = Scenario.with_cases fast_scenario 3 in
  let progress = ref 0 in
  let table = Eval.run_table ~progress:(fun _ _ -> incr progress) scen in
  Alcotest.(check int) "3 cases" 3 (List.length table.Eval.cases);
  Alcotest.(check int) "progress called" 3 !progress;
  Alcotest.(check int) "6 rows" 6 (List.length table.Eval.rows);
  List.iter
    (fun r ->
      check_true (r.Eval.name ^ " has cases") (r.Eval.n_cases > 0);
      check_true (r.Eval.name ^ " max >= avg")
        (r.Eval.max_abs_ps >= r.Eval.avg_abs_ps -. 1e-9))
    table.Eval.rows

let test_pp_table_renders () =
  let scen = Scenario.with_cases fast_scenario 1 in
  let table = Eval.run_table scen in
  let s = Format.asprintf "%a" Eval.pp_table table in
  check_true "mentions SGDP"
    (let re = ref false in
     String.iteri
       (fun i _ ->
         if i + 4 <= String.length s && String.sub s i 4 = "SGDP" then re := true)
       s;
     !re)

let test_run_table_survives_no_convergence () =
  (* max_newton = 0 makes the very first DC solve diverge, so every
     case raises No_convergence internally; the sweep must still return
     a table with the failures accounted per row. *)
  let scen = Scenario.with_cases fast_scenario 2 in
  let broken =
    Runtime.Engine.map_solver Runtime.Engine.reference (fun c ->
        { c with Spice.Transient.max_newton = 0 })
  in
  let table = Eval.run_table ~engine:broken scen in
  Alcotest.(check int) "2 cases" 2 (List.length table.Eval.cases);
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Eval.name ^ " all failed") 2 r.Eval.n_failed;
      Alcotest.(check int) (r.Eval.name ^ " none measured") 0 r.Eval.n_cases)
    table.Eval.rows;
  List.iter
    (fun c ->
      check_true "nan reference delay" (Float.is_nan c.Eval.delay_ref);
      List.iter
        (fun m -> check_true "failure message recorded" (m.Eval.failure <> None))
        c.Eval.metrics)
    table.Eval.cases

let test_adaptive_matches_fixed_delays () =
  (* Adaptive stepping may not move the Table-1 reference gate delays
     by more than a tenth of a picosecond on a Config I subset. *)
  let scen = Scenario.with_cases fast_scenario 2 in
  let fixed = Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] scen in
  let adaptive_engine =
    Runtime.Engine.make ~name:"adaptive"
      ~solver:Spice.Transient.(with_adaptive default_config)
      ()
  in
  let adaptive =
    Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] ~engine:adaptive_engine scen
  in
  List.iter2
    (fun (a : Eval.case_eval) (b : Eval.case_eval) ->
      check_true "no failures" (a.Eval.delay_ref > 0.0 && b.Eval.delay_ref > 0.0);
      check_true "delay_ref within 0.1 ps"
        (abs_float (a.Eval.delay_ref -. b.Eval.delay_ref) < 0.1e-12))
    fixed.Eval.cases adaptive.Eval.cases

(* The reference engine's receiver delays on the first 20 of Config
   II's alignments, in ps, as measured when Jacobian reuse landed with
   a banded kernel. The one dense kernel that replaced it solves these
   chains in a different elimination order and still matches them
   within 0.01 ps. A solver or measurement change that moves any of
   them by more than 0.01 ps is an answer change. *)
let config_ii_delays_ps =
  [ 50.404722; 50.404768; 50.404872; 50.404976; 50.405079; 50.404744;
    50.404459; 50.404457; 50.404729; 50.405042; 50.405101; 50.404717;
    50.404687; 50.404534; 50.404685; 50.405055; 50.404709; 50.404471;
    50.404431; 31.134378 ]

let test_config_ii_delays_golden () =
  let scen = Scenario.with_cases Scenario.config_ii 20 in
  let table = Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] scen in
  List.iteri
    (fun i ((c : Eval.case_eval), expected) ->
      let got = c.Eval.delay_ref *. 1e12 in
      if not (abs_float (got -. expected) <= 0.01) then
        Alcotest.failf "case %d: delay %.6f ps, pinned %.6f ps" i got
          expected)
    (List.combine table.Eval.cases config_ii_delays_ps)

(* ------------------------------------------------------------------ *)
(* Settle stop: a receiver replay ends once the receiver has settled,
   and what it returns is exactly a run to [tstop] cut at that point. *)

(* The replay circuit and solver config of [Injection.receiver_response]
   under [engine], run to [tstop] without settle levels. *)
let full_span_replay engine scen input ~tstop =
  let open Spice in
  let proc = scen.Scenario.proc in
  let _, _, rcv_cell, load_cell = Scenario.chain_cells scen in
  let ckt = Circuit.create () in
  let vdd = Device.Cell.attach_supply proc ckt in
  let pin = Circuit.node ckt "pin" in
  let rcv = Circuit.node ckt "rcv" in
  let buf = Circuit.node ckt "buf" in
  Device.Cell.instantiate proc rcv_cell ~ckt ~input:pin ~output:rcv
    ~vdd_node:vdd ~name:"u16";
  Device.Cell.instantiate proc load_cell ~ckt ~input:rcv ~output:buf
    ~vdd_node:vdd ~name:"u64";
  Circuit.vsource ckt pin input;
  let th = Device.Process.thresholds proc in
  let config =
    Transient.with_crossing_levels_if_empty
      { (Runtime.Engine.solver engine) with dt = scen.Scenario.dt /. 2.0; tstop }
      Waveform.Thresholds.[ v_low th; v_mid th; v_high th ]
  in
  assert (config.Transient.settle_levels = []);
  Transient.probe (Transient.run ~config ckt) "rcv"

(* The stopped replay of [input], or the reason it is not the full-span
   replay's prefix: it must end before the full wave does, its samples
   must equal the full wave's first ones bit for bit, and the full wave
   must cross no 10/50/90 threshold after its end. Adaptive steps grow
   to [dt_max] once the input is quiet; each counts for its length in
   grid steps, so the stop still fits before [tstop]. *)
let stop_mismatch ?(engine = Runtime.Engine.reference) scen input ~tstop =
  let stopped = Injection.receiver_response ~engine scen ~input ~tstop in
  let full = full_span_replay engine scen input ~tstop in
  let open Waveform.Wave in
  let ts = times stopped and vs = values stopped in
  let tf = times full and vf = values full in
  let n = Array.length ts in
  let bits = Int64.bits_of_float in
  let t_stop = ts.(n - 1) in
  let late level =
    List.filter (fun t -> t > t_stop) (crossings full level)
  in
  let th = Device.Process.thresholds scen.Scenario.proc in
  if n >= Array.length tf then
    Some (Printf.sprintf "no stop: %d of %d samples" n (Array.length tf))
  else if
    not
      (Seq.for_all
         (fun i ->
           bits ts.(i) = bits tf.(i) && bits vs.(i) = bits vf.(i))
         (Seq.init n Fun.id))
  then Some "stopped samples differ from the full-span prefix"
  else
    match
      List.concat_map late
        Waveform.Thresholds.[ v_low th; v_mid th; v_high th ]
    with
    | [] -> None
    | t :: _ ->
        Some
          (Printf.sprintf "crossing at %.1f ps after the stop at %.1f ps"
             (t *. 1e12) (t_stop *. 1e12))

let test_settle_stop_ramps =
  qcase ~count:60 "settle stop: ramp replays are exact prefixes"
    QCheck2.Gen.(
      pair (triple bool bool bool)
        (pair (float_range 10e-12 600e-12) (float_range 0.2e-9 3e-9)))
    (fun ((buffer, adaptive, rising), (slew, start)) ->
      let scen = if buffer then Scenario.config_i_buffer else Scenario.config_i in
      let engine =
        if adaptive then Runtime.Engine.fast else Runtime.Engine.reference
      in
      let dir = if rising then Waveform.Wave.Rising else Waveform.Wave.Falling in
      (* A 10-90 slew is 0.8 of the full swing, whose middle is the
         arrival. *)
      let ramp =
        Waveform.Ramp.of_arrival_slew ~arrival:(start +. (slew /. 1.6)) ~slew
          ~dir th
      in
      let tstop =
        Float.max scen.Scenario.tstop (Waveform.Ramp.t_settle ramp +. 1.5e-9)
      in
      match stop_mismatch ~engine scen (Spice.Source.of_ramp ramp) ~tstop with
      | None -> true
      | Some why -> QCheck2.Test.fail_report why)

(* Table 1's reference replays: the recorded noisy wave of every 4th
   alignment of Config I and Config II. *)
let test_settle_stop_reference_replays () =
  List.iter
    (fun scen ->
      Array.iteri
        (fun i tau ->
          if i mod 4 = 0 then begin
            let noisy = Injection.noisy scen ~tau in
            match
              stop_mismatch scen
                (Spice.Source.of_wave noisy.Injection.far)
                ~tstop:scen.Scenario.tstop
            with
            | None -> ()
            | Some why ->
                Alcotest.failf "%s alignment %d: %s" scen.Scenario.name i why
          end)
        (Scenario.taus scen))
    Scenario.[ config_i; config_ii ]

(* ------------------------------------------------------------------ *)
(* Golden: every sample of the reference engine's fixed-grid solves.
   The digests were taken before the solver learned to skip steps that
   repeat a verified fixed point; a skip commits exactly what the solve
   would, so they must not move. *)

let render_wave buf w =
  let open Waveform.Wave in
  Array.iter2
    (fun t v -> Buffer.add_string buf (Printf.sprintf "%h %h\n" t v))
    (times w) (values w)

let digest_of render =
  let buf = Buffer.create 65536 in
  render buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Saturated ramps into the INVx16 and BUFx16 receivers: both
   polarities, three slews, mid crossings early, mid-span and late. *)
let golden_ramp_replays scen buf =
  List.iter
    (fun dir ->
      List.iter
        (fun slew ->
          List.iter
            (fun mid ->
              let ramp = Waveform.Ramp.of_arrival_slew ~arrival:mid ~slew ~dir th in
              let tstop =
                Float.max scen.Scenario.tstop
                  (Waveform.Ramp.t_settle ramp +. 1.5e-9)
              in
              render_wave buf
                (Injection.receiver_response ~engine:Runtime.Engine.reference
                   scen ~input:(Spice.Source.of_ramp ramp) ~tstop))
            [ 0.3e-9; 1.2e-9; 2.5e-9 ])
        [ 10e-12; 150e-12; 600e-12 ])
    Waveform.Wave.[ Rising; Falling ]

(* Three alignments per configuration, Config II's last one among the
   waves that cross mid-rail three times. *)
let golden_taus scen = List.map (fun i -> (Scenario.taus scen).(i)) [ 40; 120; 196 ]

let golden_digests () =
  let engine = Runtime.Engine.reference in
  let configs = Scenario.[ config_i; config_ii ] in
  let noisy =
    List.concat_map
      (fun scen ->
        List.map (fun tau -> (scen, Injection.noisy ~engine scen ~tau)) (golden_taus scen))
      configs
  in
  let ct = Liberty.Characterize.run ~engine Device.Process.c13 Device.Cell.inv_x4 in
  [
    ("INVx16 ramp replays", digest_of (golden_ramp_replays Scenario.config_i));
    ("BUFx16 ramp replays", digest_of (golden_ramp_replays Scenario.config_i_buffer));
    ( "reference replays",
      digest_of (fun buf ->
          List.iter
            (fun (scen, (r : Injection.run)) ->
              render_wave buf
                (Injection.receiver_response ~engine scen
                   ~input:(Spice.Source.of_wave r.Injection.far)
                   ~tstop:scen.Scenario.tstop))
            noisy) );
    ( "noisy chains",
      digest_of (fun buf ->
          List.iter
            (fun (_, (r : Injection.run)) ->
              render_wave buf r.Injection.far;
              render_wave buf r.Injection.rcv)
            noisy) );
    ( "noiseless chains",
      digest_of (fun buf ->
          List.iter
            (fun scen ->
              let r = Injection.noiseless ~engine scen in
              render_wave buf r.Injection.far;
              render_wave buf r.Injection.rcv)
            configs) );
    ( "INVx4 characterization",
      digest_of (fun buf ->
          List.iter
            (fun (arc : Liberty.Nldm.arc) ->
              List.iter
                (fun (tb : Liberty.Nldm.table) ->
                  Array.iter
                    (Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h\n" v)))
                    tb.Liberty.Nldm.values)
                [ arc.Liberty.Nldm.delay; arc.Liberty.Nldm.trans ])
            [ ct.Liberty.Nldm.out_rise; ct.Liberty.Nldm.out_fall ]) );
  ]

let golden_pinned =
  [
    ("INVx16 ramp replays", "5dd1f703652d49fbdc927c26b26f8506");
    ("BUFx16 ramp replays", "b2a152a0a35c4f4bd57f9ddfb2b4a978");
    ("reference replays", "a13207a03483a264d471c7be8ffa8e11");
    ("noisy chains", "fcc6a57395b65762ed6a9db6cf02a6be");
    ("noiseless chains", "2c19169bd14aad6259c1d6fb3a0fa2da");
    ("INVx4 characterization", "afff61e1112ce08769d0e713cec0c424");
  ]

let test_golden_fixed_grid () =
  let got = golden_digests () in
  if got <> golden_pinned then
    Alcotest.failf "digests moved:\n%s"
      (String.concat "\n"
         (List.map (fun (what, d) -> Printf.sprintf "(%S, %S);" what d) got));
  (* The ramp replays meet their digests while skipping the steps of
     their quiet prefix. *)
  let before = Spice.Transient.Stats.snapshot () in
  ignore (digest_of (golden_ramp_replays Scenario.config_i));
  let d = Spice.Transient.Stats.(diff (snapshot ()) before) in
  check_true
    (Printf.sprintf "ramp replays skip steps: %d of %d" d.skipped_steps d.steps)
    (d.skipped_steps > 0 && d.skipped_steps < d.steps)

let suite =
  ( "noise",
    [
      case "scenario: paper values" test_config_values;
      case "scenario: taus" test_taus_span_window;
      case "scenario: victim position" test_victim_position;
      case "scenario: config I circuit shape" test_build_circuit_shape;
      case "scenario: config II circuit shape" test_build_config_ii_shape;
      case "scenario: fingerprint covers every field" test_scenario_fingerprint;
      slow_case "injection: noiseless transitions" test_noiseless_transitions;
      slow_case "injection: noiseless monotone" test_noiseless_monotone;
      slow_case "injection: coupling visible" test_noisy_differs;
      slow_case "injection: early aggressor harmless" test_early_aggressor_no_effect_on_delay;
      slow_case "injection: replay faithful" test_receiver_response_matches_replay;
      slow_case "injection: ctx assembly" test_ctx_of_runs;
      slow_case "eval: one case, all techniques" test_evaluate_case_all_techniques;
      slow_case "eval: table shape" test_run_table_shape;
      slow_case "eval: pp renders" test_pp_table_renders;
      case "eval: diverging solver becomes failed rows"
        test_run_table_survives_no_convergence;
      slow_case "eval: adaptive matches fixed delays"
        test_adaptive_matches_fixed_delays;
      slow_case "eval: Config II reference delays golden"
        test_config_ii_delays_golden;
      test_settle_stop_ramps;
      slow_case "settle stop: reference replays are exact prefixes"
        test_settle_stop_reference_replays;
      slow_case "golden: fixed-grid replays, chains and tables"
        test_golden_fixed_grid;
    ] )
