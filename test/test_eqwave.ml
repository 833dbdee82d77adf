open Helpers
open Eqwave

let proc = Device.Process.c13
let th = Device.Process.thresholds proc
let vdd = proc.Device.Process.vdd

(* A synthetic "gate": the noiseless output is the inverted input ramp
   delayed by [delay] with its own slew. Close enough for the pure
   waveform-fitting layer, and fully deterministic. *)
let synth_ctx ?(samples = 35) ?(noise = fun _ v -> v) ?(delay = 40e-12)
    ?(in_slew = 120e-12) ?(out_slew = 90e-12) ?(arrival = 1e-9) () =
  let open Waveform in
  let noiseless_in =
    Ramp.to_waveform ~n:1001 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival ~slew:in_slew ~dir:Wave.Rising th)
  in
  let noiseless_out =
    Ramp.to_waveform ~n:1001 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival:(arrival +. delay) ~slew:out_slew
         ~dir:Wave.Falling th)
  in
  let ts = Wave.times noiseless_in in
  let vs = Array.map (Wave.value_at noiseless_in) ts in
  let noisy_in = Wave.create ts (Array.mapi (fun i v -> noise ts.(i) v) vs) in
  Technique.make_ctx ~samples ~th ~noisy_in ~noiseless_in ~noiseless_out ()

(* ------------------------------------------------------------------ *)
(* Technique plumbing                                                  *)

let test_ctx_validation () =
  match synth_ctx ~samples:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected samples check"

let test_direction () =
  check_true "rising" (Technique.direction (synth_ctx ()) = Waveform.Wave.Rising)

let test_critical_regions () =
  let ctx = synth_ctx () in
  let a, b = Technique.noisy_critical_region ctx in
  let a', b' = Technique.noiseless_critical_region ctx in
  approx ~eps:2e-12 "same for clean input" a a';
  approx ~eps:2e-12 "same end" b b';
  (* 10-90 band of a 120 ps slew ramp. *)
  approx ~eps:3e-12 "width" 120e-12 (b -. a)

let test_sample_times () =
  let ts = Technique.sample_times (0.0, 1.0) 5 in
  Alcotest.(check int) "count" 5 (Array.length ts);
  approx "first" 0.0 ts.(0);
  approx "last" 1.0 ts.(4);
  approx "uniform" 0.25 ts.(1)

let test_latest_mid_anchor () =
  (* Add a dip that re-crosses 0.5 Vdd after the main edge. *)
  let noise t v =
    if t > 1.15e-9 && t < 1.3e-9 then Float.max 0.0 (v -. 0.9) else v
  in
  let ctx = synth_ctx ~noise () in
  let anchor = Technique.latest_mid_crossing ctx in
  check_true "anchor moved past the dip" (anchor > 1.2e-9)

let test_registry () =
  Alcotest.(check int) "six techniques" 6 (List.length Registry.all);
  Alcotest.(check string) "last is SGDP" "SGDP"
    (List.nth Registry.all 5).Technique.name;
  check_true "find case-insensitive"
    ((Registry.find "sgdp").Technique.name = "SGDP");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Registry.find "nope"))

(* ------------------------------------------------------------------ *)
(* Exactness: with no noise every technique must reproduce the ramp.   *)

let exactness tech () =
  let ctx = synth_ctx () in
  let ramp = tech.Technique.run ctx in
  approx ~eps:4e-12
    (tech.Technique.name ^ " arrival")
    1e-9
    (Waveform.Ramp.arrival ramp th);
  approx_rel ~rel:0.12
    (tech.Technique.name ^ " slew")
    120e-12
    (Waveform.Ramp.slew ramp th)

let exactness_cases =
  List.map
    (fun tech -> case ("exact on noiseless: " ^ tech.Technique.name) (exactness tech))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Point-based behaviours                                              *)

let dip_noise t v =
  (* A 200 mV dip in the middle of the transition. *)
  if t > 0.98e-9 && t < 1.06e-9 then Float.max 0.0 (v -. 0.2) else v

let test_p1_ignores_shape () =
  let clean = synth_ctx () in
  let noisy = synth_ctx ~noise:dip_noise () in
  let r_clean = Point_based.p1.Technique.run clean in
  let r_noisy = Point_based.p1.Technique.run noisy in
  (* P1's slew never changes; only the anchor may move. *)
  approx ~eps:1e-13 "same slew"
    (Waveform.Ramp.slew r_clean th)
    (Waveform.Ramp.slew r_noisy th)

let test_p2_stretches () =
  let stretch_noise t v =
    (* Pull the early part down so the first 0.1 Vdd crossing is early. *)
    if t < 0.96e-9 then v +. 0.1 else v
  in
  let clean = synth_ctx () in
  let noisy = synth_ctx ~noise:stretch_noise () in
  let s_clean = Waveform.Ramp.slew (Point_based.p2.Technique.run clean) th in
  let s_noisy = Waveform.Ramp.slew (Point_based.p2.Technique.run noisy) th in
  check_true "P2 slew stretched" (s_noisy > s_clean +. 10e-12)

let test_anchored_at_latest_mid () =
  let noise t v =
    if t > 1.15e-9 && t < 1.3e-9 then Float.max 0.0 (v -. 0.9) else v
  in
  let ctx = synth_ctx ~noise () in
  let anchor = Technique.latest_mid_crossing ctx in
  List.iter
    (fun tech ->
      let r = tech.Technique.run ctx in
      approx ~eps:2e-12
        (tech.Technique.name ^ " anchored")
        anchor
        (Waveform.Ramp.arrival r th))
    [ Point_based.p1; Point_based.p2; Energy.e4 ]

(* ------------------------------------------------------------------ *)
(* E4 area property                                                    *)

let test_e4_area_matching () =
  (* For the clean ramp, E4's slope must reproduce the ramp's slope
     (the ramp trivially area-matches itself). *)
  let ctx = synth_ctx () in
  let r = Energy.e4.Technique.run ctx in
  approx_rel ~rel:0.05 "slope" (vdd /. 150e-12)
    (r : Waveform.Ramp.t).Waveform.Ramp.slope

let test_e4_slower_for_shallow_tail () =
  (* Flatten the top half of the transition: the enclosed area grows,
     so E4's slope must drop. *)
  let slow_tail v = if v > 0.6 then 0.6 +. ((v -. 0.6) *. 0.4) else v in
  let clean = synth_ctx () in
  let noisy = synth_ctx ~noise:(fun _ v -> slow_tail v) () in
  let s_clean = (Energy.e4.Technique.run clean : Waveform.Ramp.t).Waveform.Ramp.slope in
  let s_noisy = (Energy.e4.Technique.run noisy : Waveform.Ramp.t).Waveform.Ramp.slope in
  check_true "slope reduced" (s_noisy < s_clean)

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)

let test_rho_of_identity () =
  (* If the "gate" output equals the input (same ramp, same timing),
     rho = 1 across the critical region interior. *)
  let open Waveform in
  let ramp = Ramp.of_arrival_slew ~arrival:1e-9 ~slew:120e-12 ~dir:Wave.Rising th in
  let w = Ramp.to_waveform ~n:2001 ~pad:300e-12 ramp in
  let ctx = Technique.make_ctx ~th ~noisy_in:w ~noiseless_in:w ~noiseless_out:w () in
  let s = Sensitivity.compute ctx in
  approx_rel ~rel:0.05 "rho=1 mid" 1.0 (Sensitivity.rho_at_voltage s (vdd /. 2.0))

let test_rho_peak_positive () =
  let ctx = synth_ctx () in
  let s = Sensitivity.compute ctx in
  check_true "peak magnitude sane" (Sensitivity.peak s > 0.2);
  (* Inverting gate: rho is negative where it matters. *)
  check_true "sign" (Sensitivity.rho_at_voltage s (vdd /. 2.0) <= 0.0)

let test_rho_zero_outside_band () =
  let ctx = synth_ctx () in
  let s = Sensitivity.compute ctx in
  approx "below band" 0.0 (Sensitivity.rho_at_voltage s 0.01);
  approx "above band" 0.0 (Sensitivity.rho_at_voltage s (vdd -. 0.01));
  approx "before region" 0.0 (Sensitivity.rho_at_time s 0.0);
  approx "after region" 0.0 (Sensitivity.rho_at_time s 1.0)

let test_overlap_shift_zero_when_overlapping () =
  approx "no shift" 0.0 (Sensitivity.overlap_shift (synth_ctx ()))

let test_overlap_shift_for_separated () =
  (* Push the output 500 ps later than the input: regions no longer
     intersect, so the shift equals the mid-to-mid gap. *)
  let ctx = synth_ctx ~delay:500e-12 () in
  approx ~eps:5e-12 "gap" 500e-12 (Sensitivity.overlap_shift ctx)

(* ------------------------------------------------------------------ *)
(* WLS5 and SGDP                                                       *)

let test_wls5_filters_outside_noise () =
  (* Noise strictly before the noiseless critical region must leave
     WLS5's fit untouched (its samples live inside the region). *)
  let pre_noise t v = if t < 0.9e-9 then v +. 0.11 else v in
  let clean = synth_ctx () in
  let noisy = synth_ctx ~noise:pre_noise () in
  let r0 = Wls.wls5.Technique.run clean in
  let r1 = Wls.wls5.Technique.run noisy in
  approx ~eps:2e-12 "arrival unchanged"
    (Waveform.Ramp.arrival r0 th)
    (Waveform.Ramp.arrival r1 th)

let test_sgdp_sees_outside_noise () =
  (* A transition delayed beyond the noiseless window: SGDP must follow
     the actual (delayed) edge; that is exactly the WLS5 blind spot. *)
  let shift = 180e-12 in
  let open Waveform in
  let clean = synth_ctx () in
  let noisy_in =
    Wave.shift clean.Technique.noisy_in shift
    |> fun w -> Wave.resample w (Wave.times clean.Technique.noisy_in)
  in
  let ctx = { clean with Technique.noisy_in } in
  let r = Sgdp.sgdp.Technique.run ctx in
  approx ~eps:8e-12 "follows delayed edge" (1e-9 +. shift)
    (Ramp.arrival r th)

let test_sgdp_second_order_ablation () =
  let ctx = synth_ctx ~noise:dip_noise () in
  let full = Sgdp.sgdp.Technique.run ctx in
  let first_order =
    (Sgdp.make { Sgdp.default_options with Sgdp.second_order = false })
      .Technique.run ctx
  in
  (* Both must produce sane rising ramps near the transition. *)
  List.iter
    (fun r ->
      check_true "rising" (Waveform.Ramp.direction r = Waveform.Wave.Rising);
      check_true "anchored near edge"
        (abs_float (Waveform.Ramp.arrival r th -. 1e-9) < 60e-12))
    [ full; first_order ]

let test_sgdp_rho_eff_remap () =
  let ctx = synth_ctx ~noise:dip_noise () in
  let sens = Sensitivity.compute ctx in
  let ts = Technique.sample_times (Technique.noisy_critical_region ctx) 35 in
  let rho, _ = Sgdp.rho_eff sens ctx ts in
  (* The remapped sensitivity must be non-zero somewhere (transition)
     and zero at rail samples. *)
  check_true "nonzero inside" (Array.exists (fun r -> abs_float r > 0.1) rho);
  let v_first = Waveform.Wave.value_at ctx.Technique.noisy_in ts.(0) in
  check_true "first sample near low rail" (v_first < 0.2 *. vdd)

let test_polarity_guard () =
  let ctx = synth_ctx () in
  let falling =
    Waveform.Ramp.of_arrival_slew ~arrival:1e-9 ~slew:100e-12
      ~dir:Waveform.Wave.Falling th
  in
  match Technique.check_polarity ctx falling with
  | exception Technique.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected polarity rejection"

let test_unsupported_on_flat_waveform () =
  let open Waveform in
  let flat = Wave.create [| 0.0; 1e-9 |] [| 0.0; 0.0 |] in
  let ramp =
    Ramp.to_waveform ~n:201
      (Ramp.of_arrival_slew ~arrival:0.5e-9 ~slew:100e-12 ~dir:Wave.Rising th)
  in
  let ctx =
    Technique.make_ctx ~th ~noisy_in:flat ~noiseless_in:ramp ~noiseless_out:ramp ()
  in
  List.iter
    (fun tech ->
      match tech.Technique.run ctx with
      | exception Technique.Unsupported _ -> ()
      | _ -> Alcotest.failf "%s should reject a flat noisy waveform"
               tech.Technique.name)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Per-arc memo                                                        *)

let copy_wave w = Waveform.Wave.(create (times w) (values w))

(* The same context over physically distinct copies of its noiseless
   waves: its arc lookup misses, so whatever it reads is computed
   fresh. *)
let fresh_arc (ctx : Technique.ctx) =
  {
    ctx with
    Technique.noiseless_in = copy_wave ctx.noiseless_in;
    noiseless_out = copy_wave ctx.noiseless_out;
  }

(* Rebuild [base]'s noisy input as [noise] applied to its noiseless
   input: contexts of one arc with different noisy waveforms. *)
let with_noise (base : Technique.ctx) noise =
  let open Waveform in
  let ts = Wave.times base.noiseless_in in
  let vs = Wave.values base.noiseless_in in
  { base with noisy_in = Wave.create ts (Array.mapi (fun i v -> noise ts.(i) v) vs) }

let bits = Int64.bits_of_float

let sens_bits (s : Sensitivity.t) =
  List.map (Array.map bits)
    [
      [| fst s.region; snd s.region; s.output_shift |];
      s.ts; s.vin; s.rho; s.drho_dv; s.v_grid; s.rho_by_v; s.drho_by_v;
    ]

let region_bits ctx =
  Option.map (fun (a, b) -> (bits a, bits b)) (Technique.noiseless_critical_region_opt ctx)

let ramp_bits (r : Waveform.Ramp.t) =
  (bits r.Waveform.Ramp.slope, bits r.Waveform.Ramp.intercept)

(* Every technique's ramp (or its rejection reason) and the default
   ladder's outcome, in comparable form. *)
let mapping ctx =
  ( List.map
      (fun (t : Technique.t) ->
        match t.Technique.run ctx with
        | r -> Ok (ramp_bits r)
        | exception Technique.Unsupported reason -> Error reason)
      Registry.all,
    match Ladder.run Ladder.default ctx with
    | Ok o -> Ok (o.technique, o.rung, ramp_bits o.ramp, bits o.score_v)
    | Error skipped -> Error (List.map (fun (s : Ladder.skip) -> s.reason) skipped) )

let test_memo_hit_matches_fresh () =
  let ctx = synth_ctx ~noise:dip_noise ~delay:500e-12 () in
  let fresh = fresh_arc ctx in
  check_true "hit returns the arc" (Technique.arc ctx == Technique.arc ctx);
  check_true "copies miss" (Technique.arc fresh != Technique.arc ctx);
  let shift = Sensitivity.overlap_shift ctx in
  check_true "non-zero shift" (shift > 0.0);
  check_true "overlap shift" (bits shift = bits (Sensitivity.overlap_shift fresh));
  List.iter
    (fun output_shift ->
      let s = Sensitivity.compute ~output_shift ctx in
      check_true "tables memoized" (Sensitivity.compute ~output_shift ctx == s);
      check_true "tables bit for bit"
        (sens_bits s = sens_bits (Sensitivity.compute ~output_shift fresh)))
    [ 0.0; shift ];
  check_true "noiseless region" (region_bits ctx = region_bits fresh);
  let slew_bits c = Option.map bits (Arc.slew (Technique.arc c)) in
  check_true "noiseless slew" (slew_bits ctx = slew_bits fresh);
  check_true "slew as Wave.slew"
    (slew_bits ctx = Option.map bits (Waveform.Wave.slew fresh.noiseless_in th));
  check_true "ramps" (mapping ctx = mapping fresh)

let test_memo_keys_never_alias () =
  let ctx = synth_ctx ~delay:500e-12 () in
  let fresh = fresh_arc ctx in
  (* Five keys against four tables per arc: the first is evicted and
     recomputed on the second pass. *)
  let keys = [ (0.0, 201); (-0.0, 201); (5e-10, 201); (0.0, 101); (5e-10, 57) ] in
  let pass () =
    List.map (fun (output_shift, points) -> Sensitivity.compute ~output_shift ~points ctx) keys
  in
  let first = pass () in
  let second = pass () in
  List.iteri
    (fun i ((output_shift, points), s) ->
      let own = sens_bits (Sensitivity.compute ~output_shift ~points fresh) in
      check_true "matches its own key" (sens_bits s = own);
      check_true "stable across passes" (sens_bits (List.nth second i) = own);
      Alcotest.(check int) "points" points (Array.length s.ts);
      check_true "shift kept bit for bit" (bits s.output_shift = bits output_shift);
      List.iteri
        (fun j s' -> if j <> i then check_true "distinct keys, distinct tables" (s != s'))
        first)
    (List.combine keys first);
  check_true "input is part of the key"
    (Technique.arc { ctx with noiseless_in = copy_wave ctx.noiseless_in } != Technique.arc ctx);
  check_true "output is part of the key"
    (Technique.arc { ctx with noiseless_out = copy_wave ctx.noiseless_out } != Technique.arc ctx);
  let th2 = Waveform.Thresholds.make ~low_frac:0.2 ~high_frac:0.8 ~vdd () in
  let narrow = { ctx with th = th2 } in
  check_true "thresholds are part of the key" (Technique.arc narrow != Technique.arc ctx);
  check_true "narrower region" (region_bits narrow <> region_bits ctx);
  check_true "region of its own thresholds"
    (region_bits narrow = region_bits { fresh with th = th2 });
  let same_th = { ctx with th = { th with vdd = th.vdd } } in
  check_true "thresholds compare structurally" (Technique.arc same_th == Technique.arc ctx)

let test_memo_replays_unsupported () =
  let open Waveform in
  (* The output never reaches 0.1 Vdd: the shift is undefined. *)
  let noiseless_out = Wave.create [| 0.0; 1.1e-9; 2e-9 |] [| vdd; vdd; 0.5 *. vdd |] in
  let base = synth_ctx () in
  let ctx = { base with noiseless_out } in
  let reason c =
    match Sensitivity.overlap_shift c with
    | _ -> Alcotest.fail "expected Unsupported"
    | exception Technique.Unsupported r -> r
  in
  let expected = "overlap_shift: noiseless output does not span the thresholds" in
  let r1 = reason ctx in
  check_true "memoized" (Technique.arc ctx == Technique.arc ctx);
  Alcotest.(check string) "reason" expected r1;
  Alcotest.(check string) "same reason on a hit" r1 (reason ctx);
  Alcotest.(check string) "same reason fresh" r1 (reason (fresh_arc ctx));
  let probe c = Sgdp.sgdp.Technique.applicable c in
  check_true "SGDP rejects alike on a hit" (probe ctx = Error expected && probe ctx = probe (fresh_arc ctx))

let test_memo_beyond_bound () =
  (* Twelve arcs visited round-robin overflow the eight-arc table, so
     every lookup of the second pass misses and rebuilds. *)
  let ctxs =
    Array.init 12 (fun i ->
        synth_ctx ~noise:dip_noise ~in_slew:(80e-12 +. (10e-12 *. float_of_int i)) ())
  in
  let first = Array.map mapping ctxs in
  let second = Array.map mapping ctxs in
  let fresh = Array.map (fun c -> mapping (fresh_arc c)) ctxs in
  check_true "second pass identical" (first = second);
  check_true "fresh arcs identical" (first = fresh)

(* Characterize an arc, then drop every reference to its context. *)
let[@inline never] characterized_then_dropped () =
  let ctx = synth_ctx () in
  ignore (Sensitivity.compute ctx);
  let probe = Weak.create 2 in
  Weak.set probe 0 (Some ctx.Technique.noiseless_in);
  Weak.set probe 1 (Some ctx.Technique.noiseless_out);
  probe

let test_memo_keeps_no_wave_alive () =
  let probe = characterized_then_dropped () in
  Gc.full_major ();
  Gc.full_major ();
  check_true "noiseless input collected" (not (Weak.check probe 0));
  check_true "noiseless output collected" (not (Weak.check probe 1))

let test_memo_pool_matches_sequential () =
  let arcs =
    [ synth_ctx (); synth_ctx ~delay:500e-12 ~out_slew:150e-12 (); synth_ctx ~in_slew:200e-12 () ]
  in
  let dip t0 depth t v = if t > t0 && t < t0 +. 80e-12 then Float.max 0.0 (v -. depth) else v in
  let ctxs =
    List.concat_map
      (fun base ->
        List.concat_map
          (fun t0 ->
            List.map
              (fun depth -> with_noise base (dip t0 depth))
              [ 0.05; 0.2; 0.45 ])
          [ 0.9e-9; 0.98e-9; 1.05e-9; 1.2e-9 ])
      arcs
    |> Array.of_list
  in
  let sequential = Array.map mapping ctxs in
  let pooled =
    Runtime.Pool.with_pool ~jobs:2 (fun pool ->
        Runtime.Pool.map ~chunk:1 pool (Array.length ctxs) (fun i -> mapping ctxs.(i)))
  in
  check_true "jobs 2 equals sequential" (pooled = sequential)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    qcase ~count:20 "LSF3: fitted line is the SSE optimum"
      QCheck2.Gen.(pair (float_range (-0.1) 0.1) (float_range (-0.05) 0.05))
      (fun (da_frac, db) ->
        (* Perturbing the fitted line must not reduce the sum of squared
           errors over the same samples. *)
        QCheck2.assume (abs_float da_frac > 1e-4 || abs_float db > 1e-4);
        let ctx = synth_ctx ~noise:dip_noise () in
        let r = Least_squares.lsf3.Technique.run ctx in
        let region = Technique.noisy_critical_region ctx in
        let ts = Technique.sample_times region ctx.Technique.samples in
        let sse slope intercept =
          Array.fold_left
            (fun acc t ->
              let e =
                Waveform.Wave.value_at ctx.Technique.noisy_in t
                -. ((slope *. t) +. intercept)
              in
              acc +. (e *. e))
            0.0 ts
        in
        let a = (r : Waveform.Ramp.t).Waveform.Ramp.slope in
        let b = r.Waveform.Ramp.intercept in
        sse a b <= sse (a *. (1.0 +. da_frac)) (b +. db) +. 1e-12);
    qcase ~count:15 "E4: ramp through anchor for arbitrary dips"
      QCheck2.Gen.(float_range 0.05 0.3)
      (fun depth ->
        let noise t v =
          if t > 0.99e-9 && t < 1.07e-9 then Float.max 0.0 (v -. depth) else v
        in
        let ctx = synth_ctx ~noise () in
        let r = Energy.e4.Technique.run ctx in
        let anchor = Technique.latest_mid_crossing ctx in
        abs_float (Waveform.Ramp.arrival r th -. anchor) < 1e-12);
    qcase ~count:15 "all techniques: time-shift equivariance"
      QCheck2.Gen.(float_range (-0.3e-9) 0.3e-9)
      (fun dt ->
        (* Shifting every waveform by dt must shift Gamma_eff by dt. *)
        let ctx = synth_ctx ~noise:dip_noise () in
        let shift w = Waveform.Wave.shift w dt in
        let ctx' =
          {
            ctx with
            Technique.noisy_in = shift ctx.Technique.noisy_in;
            noiseless_in = shift ctx.Technique.noiseless_in;
            noiseless_out = shift ctx.Technique.noiseless_out;
          }
        in
        List.for_all
          (fun (tech : Technique.t) ->
            match (tech.Technique.run ctx, tech.Technique.run ctx') with
            | r0, r1 ->
                abs_float
                  (Waveform.Ramp.arrival r1 th -. Waveform.Ramp.arrival r0 th
                  -. dt)
                < 2e-12
            | exception Technique.Unsupported _ -> true)
          Registry.all);
    qcase ~count:20 "all techniques: noiseless exactness across slews"
      QCheck2.Gen.(float_range 60e-12 300e-12)
      (fun in_slew ->
        let ctx = synth_ctx ~in_slew () in
        List.for_all
          (fun tech ->
            match tech.Technique.run ctx with
            | r -> abs_float (Waveform.Ramp.arrival r th -. 1e-9) < 6e-12
            | exception Technique.Unsupported _ -> false)
          Registry.all);
    qcase ~count:20 "SGDP: small mid-transition dips keep the anchor near"
      QCheck2.Gen.(float_range 0.02 0.25)
      (fun depth ->
        let noise t v =
          if t > 0.98e-9 && t < 1.06e-9 then Float.max 0.0 (v -. depth) else v
        in
        let ctx = synth_ctx ~noise () in
        match Sgdp.sgdp.Technique.run ctx with
        | r -> abs_float (Waveform.Ramp.arrival r th -. 1e-9) < 80e-12
        | exception Technique.Unsupported _ -> false);
  ]

let suite =
  ( "eqwave",
    [
      case "ctx: validation" test_ctx_validation;
      case "ctx: direction" test_direction;
      case "ctx: critical regions" test_critical_regions;
      case "ctx: sample times" test_sample_times;
      case "ctx: latest mid anchor" test_latest_mid_anchor;
      case "registry: contents" test_registry;
      case "P1: shape-blind slew" test_p1_ignores_shape;
      case "P2: stretches on early noise" test_p2_stretches;
      case "P1/P2/E4: anchored at latest mid" test_anchored_at_latest_mid;
      case "E4: self area match" test_e4_area_matching;
      case "E4: shallow tail slows slope" test_e4_slower_for_shallow_tail;
      case "rho: identity gate" test_rho_of_identity;
      case "rho: peak and sign" test_rho_peak_positive;
      case "rho: zero outside band" test_rho_zero_outside_band;
      case "shift: zero when overlapping" test_overlap_shift_zero_when_overlapping;
      case "shift: gap when separated" test_overlap_shift_for_separated;
      case "WLS5: noiseless-region filter" test_wls5_filters_outside_noise;
      case "SGDP: follows delayed edges" test_sgdp_sees_outside_noise;
      case "SGDP: second-order ablation" test_sgdp_second_order_ablation;
      case "SGDP: rho_eff remap" test_sgdp_rho_eff_remap;
      case "polarity guard" test_polarity_guard;
      case "flat waveform rejected" test_unsupported_on_flat_waveform;
      case "arc memo: hit equals fresh" test_memo_hit_matches_fresh;
      case "arc memo: keys never alias" test_memo_keys_never_alias;
      case "arc memo: Unsupported replayed" test_memo_replays_unsupported;
      case "arc memo: beyond the bound" test_memo_beyond_bound;
      case "arc memo: keeps no wave alive" test_memo_keeps_no_wave_alive;
      case "arc memo: pool equals sequential" test_memo_pool_matches_sequential;
    ]
    @ exactness_cases @ qcheck_tests )
