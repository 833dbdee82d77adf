type grid = { slews : float array; loads : float array }

let default_grid proc cell =
  let cin = Device.Cell.input_cap proc cell in
  {
    slews = [| 20e-12; 50e-12; 90e-12; 150e-12; 220e-12; 300e-12; 400e-12 |];
    loads = Array.map (fun k -> k *. cin) [| 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 24.0 |];
  }

(* Engine solver config with the characterization grid layered on top.
   Only the process 10/50/90 thresholds' crossings are read, so they
   are the settle levels (the run stops once both pins have settled
   away from them) and, under adaptive stepping, the crossing-refinement
   levels that keep delay/slew measurement at grid resolution (unless
   the engine brought its own levels). *)
let solver_config engine proc ~dt ~tstop =
  let th = Device.Process.thresholds proc in
  let levels = Waveform.Thresholds.[ v_low th; v_mid th; v_high th ] in
  let open Spice.Transient in
  let c = Runtime.Engine.solver engine in
  let c = with_dt c dt in
  let c = with_tstop c tstop in
  { (with_crossing_levels_if_empty c levels) with settle_levels = levels }

let measure_gate ?(dt = 0.5e-12) ?(extra_load = 0.0) ?engine proc cell
    ~input ~tstop =
  let open Spice in
  let engine = Runtime.Engine.resolve engine in
  let base_config = solver_config engine proc ~dt ~tstop in
  let compute config () =
    let ckt = Circuit.create () in
    let vdd = Device.Cell.attach_supply proc ckt in
    let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
    Device.Cell.instantiate proc cell ~ckt ~input:a ~output:y ~vdd_node:vdd
      ~name:"dut";
    if extra_load > 0.0 then
      Circuit.capacitor ckt y (Circuit.gnd ckt) extra_load;
    Circuit.vsource ckt a input;
    let res = Transient.run ~config ckt in
    [ Transient.probe res "a"; Transient.probe res "y" ]
  in
  let cache = Runtime.Engine.cache engine in
  let key_of config =
    Runtime.Cache.Key.(
      make "characterize.measure_gate"
        [
          str proc.Device.Process.name;
          str cell.Device.Cell.name;
          str (Transient.config_fingerprint config);
          float extra_load;
          str (Source.fingerprint input);
        ])
  in
  let attempt config =
    match cache with
    | None -> compute config ()
    | Some c -> Runtime.Cache.memo c (key_of config) (compute config)
  in
  let policy = Runtime.Engine.resilience engine in
  let validate waves =
    let labeled =
      match waves with
      | [ a; y ] -> [ ("input pin", a); ("output pin", y) ]
      | _ -> assert false
    in
    Runtime.Resilience.validate_waves policy
      ~rails:(0.0, proc.Device.Process.vdd)
      labeled
  in
  let on_reject config =
    match cache with
    | Some c -> Runtime.Cache.remove c (key_of config)
    | None -> ()
  in
  match
    Runtime.Resilience.run ~validate ~on_reject policy ~config:base_config
      ~attempt
  with
  | Ok [ a; y ] -> (a, y)
  | Ok _ -> assert false
  | Error f -> Runtime.Failure.fail f

(* The input ramp starts after a settling pad so the DC point is clean;
   tstop leaves room for slow outputs (heavy loads on weak cells). *)
let measure_point ?dt ?engine proc cell ~slew ~load ~input_rising =
  let th = Device.Process.thresholds proc in
  let vdd = proc.Device.Process.vdd in
  let t0 = 100e-12 in
  (* A 10-90 slew corresponds to a full-swing ramp 1/0.8 longer. *)
  let trans = slew /. (th.Waveform.Thresholds.high_frac -. th.Waveform.Thresholds.low_frac) in
  let v0, v1 = if input_rising then (0.0, vdd) else (vdd, 0.0) in
  let input = Spice.Source.ramp ~t0 ~v0 ~v1 ~trans in
  let tstop = t0 +. trans +. 3e-9 in
  let wa, wy =
    measure_gate ?dt ?engine proc cell ~extra_load:load ~input ~tstop
  in
  let arr_in = Waveform.Wave.arrival wa th in
  let arr_out = Waveform.Wave.arrival wy th in
  let out_slew = Waveform.Wave.slew wy th in
  match (arr_in, arr_out, out_slew) with
  | Some ti, Some ty, Some s -> (ty -. ti, s)
  | _ ->
      Runtime.Failure.fail
        (Missing_crossing
           {
             what =
               Printf.sprintf "%s transition (slew=%.3gps load=%.3gfF)"
                 cell.Device.Cell.name (slew *. 1e12) (load *. 1e15);
             level = Waveform.Thresholds.v_mid th;
           })

let run ?grid ?(dt = 0.5e-12) ?engine proc cell =
  let engine = Runtime.Engine.resolve engine in
  let grid =
    match grid with Some g -> g | None -> default_grid proc cell
  in
  let n = Array.length grid.slews and m = Array.length grid.loads in
  (* Both polarities' grid points are independent simulations: flatten
     them into one job list so a pool stays busy across the whole
     characterization, then scatter the results back into tables. *)
  let points =
    Runtime.Engine.submit_batch engine (2 * n * m) (fun k ->
        let input_rising = k < n * m in
        let r = k mod (n * m) in
        let i = r / m and j = r mod m in
        measure_point ~dt ~engine proc cell ~slew:grid.slews.(i)
          ~load:grid.loads.(j) ~input_rising)
  in
  let sweep_of ~input_rising =
    let base = if input_rising then 0 else n * m in
    let delay = Array.make_matrix n m 0.0 in
    let trans = Array.make_matrix n m 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        let d, s = points.(base + (i * m) + j) in
        delay.(i).(j) <- d;
        trans.(i).(j) <- s
      done
    done;
    {
      Nldm.delay = Nldm.table ~slews:grid.slews ~loads:grid.loads ~values:delay;
      trans = Nldm.table ~slews:grid.slews ~loads:grid.loads ~values:trans;
    }
  in
  let inverting = Device.Cell.inverting cell in
  {
    Nldm.cell = cell.Device.Cell.name;
    input_cap = Device.Cell.input_cap proc cell;
    inverting;
    (* Output rises when the input falls on inverting cells, and when
       it rises on buffers. *)
    out_rise = sweep_of ~input_rising:(not inverting);
    out_fall = sweep_of ~input_rising:inverting;
  }
