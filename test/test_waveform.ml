open Helpers
open Waveform

let th = Thresholds.make ~vdd:1.2 ()
let vdd = th.Thresholds.vdd

let ramp_wave ?(t0 = 0.0) ?(trans = 100e-12) ?(rising = true) () =
  let v0, v1 = if rising then (0.0, vdd) else (vdd, 0.0) in
  Wave.of_fun ~t0:(t0 -. 50e-12) ~t1:(t0 +. trans +. 50e-12) ~n:401 (fun t ->
      if t <= t0 then v0
      else if t >= t0 +. trans then v1
      else v0 +. ((v1 -. v0) *. (t -. t0) /. trans))

(* ------------------------------------------------------------------ *)
(* Thresholds                                                          *)

let test_thresholds_default () =
  approx "low" 0.12 (Thresholds.v_low th);
  approx "mid" 0.6 (Thresholds.v_mid th);
  approx "high" 1.08 (Thresholds.v_high th)

let test_thresholds_validation () =
  Alcotest.check_raises "bad order"
    (Invalid_argument "Thresholds.make: need 0 < low < mid < high < 1")
    (fun () -> ignore (Thresholds.make ~low_frac:0.6 ~mid_frac:0.5 ~vdd:1.0 ()));
  Alcotest.check_raises "bad vdd"
    (Invalid_argument "Thresholds.make: vdd must be positive") (fun () ->
      ignore (Thresholds.make ~vdd:0.0 ()))

(* ------------------------------------------------------------------ *)
(* Wave construction and queries                                       *)

let test_create_validation () =
  Alcotest.check_raises "short"
    (Invalid_argument "Wave.create: need at least 2 samples") (fun () ->
      ignore (Wave.create [| 0.0 |] [| 1.0 |]));
  Alcotest.check_raises "nonmonotone"
    (Invalid_argument "Wave.create: times must be strictly increasing")
    (fun () -> ignore (Wave.create [| 0.0; 0.0 |] [| 1.0; 2.0 |]))

let test_value_at_interpolates () =
  let w = Wave.create [| 0.0; 1.0 |] [| 0.0; 2.0 |] in
  approx "mid" 1.0 (Wave.value_at w 0.5);
  approx "before" 0.0 (Wave.value_at w (-1.0));
  approx "after" 2.0 (Wave.value_at w 5.0)

let test_crossing_simple () =
  let w = ramp_wave () in
  (match Wave.first_crossing w (Thresholds.v_mid th) with
  | Some t -> approx ~eps:1e-15 "mid at half" 50e-12 t
  | None -> Alcotest.fail "no crossing");
  match Wave.crossings w (Thresholds.v_mid th) with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected 1 crossing, got %d" (List.length l)

let test_crossing_multiple () =
  (* A glitchy curve crossing 0.5 three times. *)
  let ts = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let vs = [| 0.0; 1.0; 0.2; 1.2; 1.2 |] in
  let w = Wave.create ts vs in
  let c = Wave.crossings w 0.6 in
  Alcotest.(check int) "three crossings" 3 (List.length c);
  (match Wave.first_crossing w 0.6 with
  | Some t -> approx "first" 0.6 t
  | None -> Alcotest.fail "no first");
  match Wave.last_crossing w 0.6 with
  | Some t -> approx "last" 2.4 t
  | None -> Alcotest.fail "no last"

let test_crossing_exact_sample () =
  (* A sample exactly on the level counts once. *)
  let w = Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 0.5; 1.0 |] in
  Alcotest.(check int) "once" 1 (List.length (Wave.crossings w 0.5))

let test_direction () =
  check_true "rising" (Wave.direction (ramp_wave ()) = Wave.Rising);
  check_true "falling" (Wave.direction (ramp_wave ~rising:false ()) = Wave.Falling);
  let flat = Wave.create [| 0.0; 1.0 |] [| 0.3; 0.3 |] in
  match Wave.direction flat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected no-transition error"

let test_slew_rising () =
  let w = ramp_wave ~trans:100e-12 () in
  match Wave.slew w th with
  | Some s -> approx ~eps:1e-13 "slew = 80% of trans" 80e-12 s
  | None -> Alcotest.fail "no slew"

let test_slew_falling () =
  let w = ramp_wave ~trans:200e-12 ~rising:false () in
  match Wave.slew w th with
  | Some s -> approx ~eps:1e-13 "falling slew" 160e-12 s
  | None -> Alcotest.fail "no slew"

let test_arrival_latest () =
  let ts = [| 0.0; 1e-9; 2e-9; 3e-9; 4e-9 |] in
  let vs = [| 0.0; 1.2; 0.0; 1.2; 1.2 |] in
  let w = Wave.create ts vs in
  match Wave.arrival w th with
  | Some t -> approx ~eps:1e-12 "latest mid" 2.5e-9 t
  | None -> Alcotest.fail "no arrival"

let test_shift () =
  let w = ramp_wave () in
  let s = Wave.shift w 1e-9 in
  approx ~eps:1e-15 "start moved" (Wave.t_start w +. 1e-9) (Wave.t_start s);
  approx "values preserved" (Wave.value_at w 50e-12)
    (Wave.value_at s (50e-12 +. 1e-9))

let test_resample_preserves_values () =
  let w = ramp_wave () in
  let grid = Array.init 50 (fun i -> float_of_int i *. 4e-12) in
  let r = Wave.resample w grid in
  Array.iter
    (fun t -> approx ~eps:1e-9 "resample" (Wave.value_at w t) (Wave.value_at r t))
    grid

let test_derivative_of_ramp () =
  let w = ramp_wave ~trans:100e-12 () in
  let d = Wave.derivative w in
  (* slope inside the ramp = vdd / trans = 12 GV/s *)
  approx_rel ~rel:0.02 "slope" (vdd /. 100e-12) (Wave.value_at d 50e-12)

let test_monotone () =
  (* A monotone edge crosses every level between its rails exactly
     once; a non-monotone one crosses some level more than once, which
     is why arrival takes the latest crossing. *)
  let ramp = ramp_wave () in
  List.iter
    (fun frac ->
      Alcotest.(check int) "ramp crosses once" 1
        (List.length (Wave.crossings ramp (frac *. vdd))))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ];
  let glitchy = Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 1.0; 0.5 |] in
  Alcotest.(check (list (float 1e-12)))
    "glitchy crosses twice" [ 0.75; 1.5 ] (Wave.crossings glitchy 0.75)

let test_csv () =
  let w = Wave.create [| 0.0; 1.0 |] [| 0.5; 1.5 |] in
  let csv = Wave.to_csv w in
  check_true "header" (String.length csv > 4 && String.sub csv 0 4 = "t,v\n");
  check_true "two rows"
    (List.length (String.split_on_char '\n' (String.trim csv)) = 3)

let test_peak_deviation () =
  (* Largest distance of the samples from the line v = t. *)
  let w = Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 1.5; 2.0 |] in
  let line = Wave.create [| 0.0; 2.0 |] [| 0.0; 2.0 |] in
  let residual =
    Array.map2
      (fun t v -> v -. Wave.value_at line t)
      (Wave.times w) (Wave.values w)
  in
  approx "deviation" 0.5 (Numerics.Stats.max_abs residual)

(* ------------------------------------------------------------------ *)
(* Ramp                                                                *)

let test_ramp_arrival_slew_roundtrip () =
  let r = Ramp.of_arrival_slew ~arrival:1e-9 ~slew:120e-12 ~dir:Wave.Rising th in
  approx ~eps:1e-15 "arrival" 1e-9 (Ramp.arrival r th);
  approx ~eps:1e-15 "slew" 120e-12 (Ramp.slew r th);
  check_true "dir" (Ramp.direction r = Wave.Rising)

let test_ramp_falling_roundtrip () =
  let r = Ramp.of_arrival_slew ~arrival:2e-9 ~slew:80e-12 ~dir:Wave.Falling th in
  approx ~eps:1e-15 "arrival" 2e-9 (Ramp.arrival r th);
  approx ~eps:1e-15 "slew" 80e-12 (Ramp.slew r th);
  check_true "dir" (Ramp.direction r = Wave.Falling)

let test_ramp_value_clipped () =
  let r = Ramp.of_arrival_slew ~arrival:0.0 ~slew:100e-12 ~dir:Wave.Rising th in
  approx "low rail" 0.0 (Ramp.value_at r (-1e-9));
  approx "high rail" vdd (Ramp.value_at r 1e-9)

let test_ramp_to_waveform_consistent () =
  let r = Ramp.of_arrival_slew ~arrival:1e-9 ~slew:150e-12 ~dir:Wave.Rising th in
  let w = Ramp.to_waveform ~n:801 r in
  (match Wave.arrival w th with
  | Some t -> approx ~eps:2e-12 "arrival preserved" 1e-9 t
  | None -> Alcotest.fail "no arrival");
  match Wave.slew w th with
  | Some s -> approx ~eps:3e-12 "slew preserved" 150e-12 s
  | None -> Alcotest.fail "no slew"

let test_ramp_validation () =
  Alcotest.check_raises "zero slope" (Invalid_argument "Ramp.make: zero slope")
    (fun () -> ignore (Ramp.make ~slope:0.0 ~intercept:0.0 ~vdd:1.2));
  Alcotest.check_raises "bad slew"
    (Invalid_argument "Ramp.of_arrival_slew: slew must be positive") (fun () ->
      ignore (Ramp.of_arrival_slew ~arrival:0.0 ~slew:0.0 ~dir:Wave.Rising th))

let test_ramp_begin_settle () =
  let r = Ramp.of_arrival_slew ~arrival:1e-9 ~slew:80e-12 ~dir:Wave.Rising th in
  check_true "begin < settle" (Ramp.t_begin r < Ramp.t_settle r);
  approx ~eps:1e-15 "full swing duration" (80e-12 /. 0.8)
    (Ramp.t_settle r -. Ramp.t_begin r)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    qcase "wave: shifting moves crossings by the shift"
      QCheck2.Gen.(float_range (-1e-9) 1e-9)
      (fun dt ->
        let w = ramp_wave () in
        let s = Wave.shift w dt in
        match (Wave.arrival w th, Wave.arrival s th) with
        | Some a, Some b -> abs_float (b -. a -. dt) < 1e-15
        | _ -> false);
    qcase "ramp: arrival/slew roundtrip for random parameters"
      QCheck2.Gen.(pair (float_range (-2e-9) 2e-9) (float_range 1e-12 1e-9))
      (fun (arrival, slew) ->
        let r = Ramp.of_arrival_slew ~arrival ~slew ~dir:Wave.Rising th in
        abs_float (Ramp.arrival r th -. arrival) < 1e-12
        && abs_float (Ramp.slew r th -. slew) < 1e-12);
    qcase "wave: monotone resampling of a monotone wave stays monotone"
      QCheck2.Gen.(int_range 3 100)
      (fun n ->
        let w = ramp_wave () in
        let t0 = Wave.t_start w in
        let h = (Wave.t_end w -. t0) /. float_of_int (n - 1) in
        let grid = Array.init n (fun i -> t0 +. (h *. float_of_int i)) in
        is_monotone (Wave.resample w grid));
  ]

let suite =
  ( "waveform",
    [
      case "thresholds: defaults" test_thresholds_default;
      case "thresholds: validation" test_thresholds_validation;
      case "wave: create validation" test_create_validation;
      case "wave: interpolation" test_value_at_interpolates;
      case "wave: single crossing" test_crossing_simple;
      case "wave: multiple crossings" test_crossing_multiple;
      case "wave: exact-sample crossing" test_crossing_exact_sample;
      case "wave: direction" test_direction;
      case "wave: rising slew" test_slew_rising;
      case "wave: falling slew" test_slew_falling;
      case "wave: latest arrival" test_arrival_latest;
      case "wave: shift" test_shift;
      case "wave: resample" test_resample_preserves_values;
      case "wave: derivative of ramp" test_derivative_of_ramp;
      case "wave: monotone" test_monotone;
      case "wave: csv" test_csv;
      case "wave: peak deviation" test_peak_deviation;
      case "ramp: rising roundtrip" test_ramp_arrival_slew_roundtrip;
      case "ramp: falling roundtrip" test_ramp_falling_roundtrip;
      case "ramp: clipped values" test_ramp_value_clipped;
      case "ramp: to_waveform consistency" test_ramp_to_waveform_consistent;
      case "ramp: validation" test_ramp_validation;
      case "ramp: begin/settle span" test_ramp_begin_settle;
    ]
    @ qcheck_tests )
