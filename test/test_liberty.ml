open Helpers
open Liberty

let proc = Device.Process.c13

let mk_table () =
  Nldm.table ~slews:[| 10e-12; 100e-12 |] ~loads:[| 1e-15; 10e-15 |]
    ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]

(* ------------------------------------------------------------------ *)
(* Nldm tables                                                         *)

let test_table_validation () =
  Alcotest.check_raises "rows"
    (Invalid_argument "Nldm.table: row count must match slews") (fun () ->
      ignore
        (Nldm.table ~slews:[| 1.0; 2.0 |] ~loads:[| 1.0; 2.0 |]
           ~values:[| [| 1.0; 2.0 |] |]));
  Alcotest.check_raises "axis"
    (Invalid_argument "Nldm.table: slews must be strictly increasing")
    (fun () ->
      ignore
        (Nldm.table ~slews:[| 2.0; 1.0 |] ~loads:[| 1.0; 2.0 |]
           ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]))

let test_lookup_corners () =
  let t = mk_table () in
  approx "corner" 1.0 (Nldm.lookup t ~slew:10e-12 ~load:1e-15);
  approx "corner2" 4.0 (Nldm.lookup t ~slew:100e-12 ~load:10e-15)

let test_lookup_interpolates () =
  let t = mk_table () in
  approx "center" 2.5 (Nldm.lookup t ~slew:55e-12 ~load:5.5e-15)

let test_lookup_clamps () =
  let t = mk_table () in
  approx "below" 1.0 (Nldm.lookup t ~slew:1e-12 ~load:0.1e-15);
  approx "above" 4.0 (Nldm.lookup t ~slew:1.0 ~load:1.0)

(* ------------------------------------------------------------------ *)
(* Characterization (simulation-backed)                                *)

let small_grid cell =
  let cin = Device.Cell.input_cap proc cell in
  {
    Characterize.slews = [| 50e-12; 150e-12; 300e-12 |];
    loads = [| cin; 4.0 *. cin; 12.0 *. cin |];
  }

let charx1 =
  lazy (Characterize.run ~grid:(small_grid Device.Cell.inv_x1) ~dt:1e-12 proc
          Device.Cell.inv_x1)

let test_characterize_positive () =
  let ct = Lazy.force charx1 in
  Array.iter
    (Array.iter (fun d -> check_true "positive delay" (d > 0.0)))
    ct.Nldm.out_fall.Nldm.delay.Nldm.values;
  Array.iter
    (Array.iter (fun s -> check_true "positive slew" (s > 0.0)))
    ct.Nldm.out_fall.Nldm.trans.Nldm.values

let test_characterize_monotone_in_load () =
  (* More load -> more delay and slower output, for every input slew. *)
  let ct = Lazy.force charx1 in
  let check (t : Nldm.table) what =
    Array.iter
      (fun row ->
        for j = 0 to Array.length row - 2 do
          check_true (what ^ " monotone in load") (row.(j) <= row.(j + 1))
        done)
      t.Nldm.values
  in
  check ct.Nldm.out_fall.Nldm.delay "fall delay";
  check ct.Nldm.out_rise.Nldm.delay "rise delay";
  check ct.Nldm.out_fall.Nldm.trans "fall trans";
  check ct.Nldm.out_rise.Nldm.trans "rise trans"

let test_characterize_rise_slower () =
  (* Our PMOS is weaker per drawn width ratio, so rising outputs should
     not be dramatically faster than falling ones; sanity band only. *)
  let ct = Lazy.force charx1 in
  let d_fall = ct.Nldm.out_fall.Nldm.delay.Nldm.values.(1).(1) in
  let d_rise = ct.Nldm.out_rise.Nldm.delay.Nldm.values.(1).(1) in
  check_true "same order of magnitude"
    (d_rise /. d_fall > 0.3 && d_rise /. d_fall < 3.0)

let test_gate_delay_arc_choice () =
  let ct = Lazy.force charx1 in
  let d_r, s_r =
    Nldm.gate_delay ct ~input_dir:Waveform.Wave.Rising ~slew:150e-12
      ~load:(4.0 *. ct.Nldm.input_cap)
  in
  check_true "rising input -> fall arc" (d_r > 0.0 && s_r > 0.0);
  approx "matches out_fall"
    (Nldm.lookup ct.Nldm.out_fall.Nldm.delay ~slew:150e-12
       ~load:(4.0 *. ct.Nldm.input_cap))
    d_r

let test_measure_gate_waveforms () =
  let input =
    Spice.Source.ramp ~t0:100e-12 ~v0:0.0 ~v1:proc.Device.Process.vdd
      ~trans:187.5e-12
  in
  let wa, wy =
    Characterize.measure_gate proc Device.Cell.inv_x4 ~extra_load:10e-15
      ~input ~tstop:2e-9
  in
  check_true "input rising" (Waveform.Wave.direction wa = Waveform.Wave.Rising);
  check_true "output falling" (Waveform.Wave.direction wy = Waveform.Wave.Falling);
  check_true "stops once settled" (Waveform.Wave.t_end wy < 2e-9)

(* [Characterize]'s measurement of one grid point, run to [tstop]
   without settle levels: the same input ramp, circuit, config and
   crossings as [Characterize.run] at its default dt. *)
let full_span_point cell ~slew ~load ~input_rising =
  let open Spice in
  let th = Device.Process.thresholds proc in
  let vdd = proc.Device.Process.vdd in
  let t0 = 100e-12 in
  let trans = slew /. (th.Waveform.Thresholds.high_frac -. th.Waveform.Thresholds.low_frac) in
  let v0, v1 = if input_rising then (0.0, vdd) else (vdd, 0.0) in
  let ckt = Circuit.create () in
  let vdd_node = Device.Cell.attach_supply proc ckt in
  let a = Circuit.node ckt "a" and y = Circuit.node ckt "y" in
  Device.Cell.instantiate proc cell ~ckt ~input:a ~output:y ~vdd_node ~name:"dut";
  Circuit.capacitor ckt y (Circuit.gnd ckt) load;
  Circuit.vsource ckt a (Source.ramp ~t0 ~v0 ~v1 ~trans);
  let config =
    { Transient.default_config with dt = 0.5e-12; tstop = t0 +. trans +. 3e-9 }
  in
  let res = Transient.run ~config ckt in
  let wa = Transient.probe res "a" and wy = Transient.probe res "y" in
  match
    (Waveform.Wave.arrival wa th, Waveform.Wave.arrival wy th, Waveform.Wave.slew wy th)
  with
  | Some ti, Some ty, Some s -> (ty -. ti, s)
  | _ -> Alcotest.fail "full-span point has no output transition"

(* The settle stop ends every characterization run early; the tables
   must still be the full-span ones bit for bit. *)
let test_characterize_settle_stop_exact () =
  let cell = Device.Cell.inv_x4 in
  let ct = Characterize.run proc cell in
  let grid = Characterize.default_grid proc cell in
  let bits = Int64.bits_of_float in
  let check (arc : Nldm.arc) ~input_rising what =
    Array.iteri
      (fun i slew ->
        Array.iteri
          (fun j load ->
            let d, s = full_span_point cell ~slew ~load ~input_rising in
            let got_d = arc.Nldm.delay.Nldm.values.(i).(j) in
            let got_s = arc.Nldm.trans.Nldm.values.(i).(j) in
            if bits got_d <> bits d || bits got_s <> bits s then
              Alcotest.failf
                "%s (%d, %d): delay %h / %h, transition %h / %h (table / full span)"
                what i j got_d d got_s s)
          grid.Characterize.loads)
      grid.Characterize.slews
  in
  check ct.Nldm.out_fall ~input_rising:true "out_fall";
  check ct.Nldm.out_rise ~input_rising:false "out_rise"

(* ------------------------------------------------------------------ *)
(* Libfile round trip                                                  *)

let test_libfile_roundtrip () =
  let ct = Lazy.force charx1 in
  let text = Libfile.to_string [ ct ] in
  match Libfile.of_string text with
  | [ back ] ->
      Alcotest.(check string) "name" ct.Nldm.cell back.Nldm.cell;
      approx_rel ~rel:1e-6 "cap" ct.Nldm.input_cap back.Nldm.input_cap;
      let t0 = ct.Nldm.out_fall.Nldm.delay and t1 = back.Nldm.out_fall.Nldm.delay in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v -> approx_rel ~rel:1e-6 "value" v t1.Nldm.values.(i).(j))
            row)
        t0.Nldm.values;
      Array.iteri
        (fun i s -> approx_rel ~rel:1e-6 "slew axis" s t1.Nldm.slews.(i))
        t0.Nldm.slews
  | l -> Alcotest.failf "expected 1 cell, got %d" (List.length l)

let test_libfile_multi_cell_roundtrip () =
  let ct = Lazy.force charx1 in
  let ct2 = { ct with Nldm.cell = "INVx2" } in
  let back = Libfile.of_string (Libfile.to_string [ ct; ct2 ]) in
  Alcotest.(check int) "two cells" 2 (List.length back);
  check_true "find works" ((Libfile.find back "INVx2").Nldm.cell = "INVx2");
  Alcotest.check_raises "find missing" Not_found (fun () ->
      ignore (Libfile.find back "NAND2"))

let test_libfile_save_load () =
  let ct = Lazy.force charx1 in
  let path = Filename.temp_file "noisy_sta" ".lib" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Libfile.save path [ ct ];
      match Libfile.load path with
      | [ back ] -> Alcotest.(check string) "name" ct.Nldm.cell back.Nldm.cell
      | _ -> Alcotest.fail "expected one cell")

let test_libfile_parse_errors () =
  check_true "garbage rejected"
    (match Libfile.of_string "library(x) { cell(y) }" with
    | exception Failure _ -> true
    | _ -> false);
  check_true "empty ok" (Libfile.of_string "library(empty) {\n}\n" = [])

let qcheck_tests =
  [
    qcase ~count:20 "nldm: exact at grid nodes"
      QCheck2.Gen.(pair (int_range 0 1) (int_range 0 1))
      (fun (i, j) ->
        let t = mk_table () in
        let v = Nldm.lookup t ~slew:t.Nldm.slews.(i) ~load:t.Nldm.loads.(j) in
        abs_float (v -. t.Nldm.values.(i).(j)) < 1e-12);
    qcase ~count:25 "nldm: lookup stays within table value bounds"
      QCheck2.Gen.(pair (float_range 0.0 1e-9) (float_range 0.0 1e-13))
      (fun (slew, load) ->
        let t = mk_table () in
        let v = Nldm.lookup t ~slew ~load in
        v >= 1.0 -. 1e-9 && v <= 4.0 +. 1e-9);
  ]

let suite =
  ( "liberty",
    [
      case "nldm: validation" test_table_validation;
      case "nldm: corner lookup" test_lookup_corners;
      case "nldm: bilinear center" test_lookup_interpolates;
      case "nldm: clamping" test_lookup_clamps;
      slow_case "characterize: positive entries" test_characterize_positive;
      slow_case "characterize: monotone in load" test_characterize_monotone_in_load;
      slow_case "characterize: rise/fall balance" test_characterize_rise_slower;
      slow_case "characterize: arc choice" test_gate_delay_arc_choice;
      case "characterize: measure_gate directions" test_measure_gate_waveforms;
      slow_case "characterize: settle stop keeps tables exact"
        test_characterize_settle_stop_exact;
      slow_case "libfile: roundtrip" test_libfile_roundtrip;
      slow_case "libfile: multi-cell" test_libfile_multi_cell_roundtrip;
      slow_case "libfile: save/load" test_libfile_save_load;
      case "libfile: parse errors" test_libfile_parse_errors;
    ]
    @ qcheck_tests )
