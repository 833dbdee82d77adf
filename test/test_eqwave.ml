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

let pp_ramp buf (r : Waveform.Ramp.t) =
  Printf.bprintf buf " %h %h" r.Waveform.Ramp.slope r.Waveform.Ramp.intercept

(* Every registry technique's verdict and ramp (or rejection) and the
   default ladder's outcome, floats in %h so every bit shows. *)
let mapping ctx =
  let buf = Buffer.create 512 in
  List.iter
    (fun (t : Technique.t) ->
      Printf.bprintf buf "%s:" t.Technique.name;
      (match t.Technique.applicable ctx with
      | Ok () -> Buffer.add_string buf " ok"
      | Error reason -> Printf.bprintf buf " veto %S" reason);
      (match t.Technique.run ctx with
      | r -> pp_ramp buf r
      | exception Technique.Unsupported reason -> Printf.bprintf buf " unsupported %S" reason
      | exception Failure reason -> Printf.bprintf buf " failure %S" reason);
      Buffer.add_char buf '\n')
    Registry.all;
  let skips =
    List.iter (fun (s : Ladder.skip) -> Printf.bprintf buf " [%s %S]" s.technique s.reason)
  in
  (match Ladder.run Ladder.default ctx with
  | Ok o ->
      Printf.bprintf buf "ladder %s rung %d score %h" o.technique o.rung o.score_v;
      pp_ramp buf o.ramp;
      skips o.skipped
  | Error skipped ->
      Buffer.add_string buf "ladder exhausted";
      skips skipped);
  Buffer.add_char buf '\n';
  Buffer.contents buf

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
    with_pool ~jobs:2 (fun pool ->
        Runtime.Pool.map ~chunk:1 pool (Array.length ctxs) (fun i -> mapping ctxs.(i)))
  in
  check_true "jobs 2 equals sequential" (pooled = sequential)

(* ------------------------------------------------------------------ *)
(* Golden mappings on piecewise-linear contexts                        *)

(* Contexts built from piecewise-linear waves only (explicit samples,
   linear edges, triangular glitches), so every bit of every answer
   follows from IEEE arithmetic alone and not from a libm. The input is
   a 150 ps linear edge at 1 ns; the noiseless output is an inverted
   three-slope knee [delay] later (0 overlaps the input's critical
   region, 500 ps does not); [glitch] is superposed on the noisy input
   before clamping to the rails. *)
let pwl_th = Waveform.Thresholds.make ~vdd:1.2 ()

type pwl_glitch = Clean | Before of float | Inside of float | After of float

let pwl_ctx ~dir ~delay ~glitch ~samples =
  let open Waveform in
  let vdd = pwl_th.Thresholds.vdd in
  let rising = dir = Wave.Rising in
  let v0, v1 = if rising then (0.0, vdd) else (vdd, 0.0) in
  (* The glitch pulls toward the rail the input is not on. *)
  let toward_v1 = if rising then vdd else -.vdd in
  let edge = Edges.linear_edge ~t0:1e-9 ~trans:150e-12 ~v0 ~v1 in
  let glitch =
    match glitch with
    | Clean -> []
    | Before a -> [ Edges.triangular_glitch ~t0:0.6e-9 ~rise:60e-12 ~fall:90e-12 ~peak:(a *. toward_v1) ]
    | Inside a -> [ Edges.triangular_glitch ~t0:1.02e-9 ~rise:40e-12 ~fall:60e-12 ~peak:(-.a *. toward_v1) ]
    | After a -> [ Edges.triangular_glitch ~t0:1.3e-9 ~rise:50e-12 ~fall:120e-12 ~peak:(-.a *. toward_v1) ]
  in
  let noiseless_in = Edges.sample ~t0:0.0 ~t1:3e-9 edge in
  let noisy_in = Edges.sample ~t0:0.0 ~t1:3e-9 (Edges.clamp ~vdd (Edges.superpose (edge :: glitch))) in
  let knee = [| 1.0; 1.0; 0.85; 0.2; 0.0; 0.0 |] in
  let noiseless_out =
    Wave.create
      (Array.map (fun t -> if t = 0.0 || t = 3.5e-9 then t else t +. delay)
         [| 0.0; 1.0e-9; 1.04e-9; 1.1e-9; 1.2e-9; 3.5e-9 |])
      (Array.map (fun k -> if rising then k *. vdd else (1.0 -. k) *. vdd) knee)
  in
  Technique.make_ctx ~samples ~th:pwl_th ~noisy_in ~noiseless_in ~noiseless_out ()

let test_pwl_golden () =
  let sgdp_ramp ctx =
    let buf = Buffer.create 64 in
    pp_ramp buf (Sgdp.sgdp.Technique.run ctx);
    Buffer.contents buf
  in
  let open Waveform.Wave in
  Alcotest.(check string) "SGDP rising, overlapping, deep inner dip, P=35"
    " 0x1.53743c03175e5p+34 -0x1.893bed15d46e7p+4"
    (sgdp_ramp (pwl_ctx ~dir:Rising ~delay:0.0 ~glitch:(Inside 0.8) ~samples:35));
  Alcotest.(check string) "SGDP falling, overlapping, shallow inner dip, P=10"
    " -0x1.7a604bda7947cp+33 0x1.d00d070aefb7dp+3"
    (sgdp_ramp (pwl_ctx ~dir:Falling ~delay:0.0 ~glitch:(Inside 0.3) ~samples:10));
  Alcotest.(check string) "SGDP falling, separated, deep late dip, P=140"
    " -0x1.b52d97824eb8dp+31 0x1.6ca5a88e9137ap+2"
    (sgdp_ramp (pwl_ctx ~dir:Falling ~delay:500e-12 ~glitch:(After 0.8) ~samples:140));
  let contexts =
    List.concat_map
      (fun dir ->
        List.concat_map
          (fun delay ->
            List.concat_map
              (fun glitch ->
                List.map (fun samples -> pwl_ctx ~dir ~delay ~glitch ~samples) [ 4; 10; 35; 140 ])
              [ Clean; Before 0.3; Before 0.8; Inside 0.3; Inside 0.8; After 0.3; After 0.8 ])
          [ 0.0; 500e-12 ])
      [ Rising; Falling ]
  in
  Alcotest.(check int) "contexts" 112 (List.length contexts);
  let all = String.concat "" (List.map mapping contexts) in
  Alcotest.(check string) "MD5 of every mapping" "f4f187da29d281202f3c0d5527fac457"
    (Digest.to_hex (Digest.string all))

(* The fit allocates nothing per sample or per line-search trial: one
   SGDP run at P = 140 on a characterized arc allocates ~14,800 minor
   words, nearly all in sampling the noisy wave and remapping rho. A fit
   that builds a residual array per trial and Jacobian rows per
   iteration allocates 165,793 here, far above the bound. *)
let test_sgdp_allocation_budget () =
  let ctx = pwl_ctx ~dir:Waveform.Wave.Rising ~delay:0.0 ~glitch:(Inside 0.3) ~samples:140 in
  let run () = ignore (Sys.opaque_identity (Sgdp.sgdp.Technique.run ctx)) in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  check_true (Printf.sprintf "%.0f minor words under 40000" words) (words < 40_000.0)

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
      case "golden: piecewise-linear mappings" test_pwl_golden;
      case "SGDP: allocation budget" test_sgdp_allocation_budget;
    ]
    @ exactness_cases @ qcheck_tests )
