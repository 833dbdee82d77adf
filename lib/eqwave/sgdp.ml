open Technique

type options = {
  second_order : bool;
  align_non_overlapping : bool;
  commit_masking : bool;
  gn_iterations : int;
}

let default_options =
  {
    second_order = true;
    align_non_overlapping = true;
    commit_masking = true;
    gn_iterations = 15;
  }

(* Voltage-level matching: rho_eff and d rho_eff / d v_in at sampled
   noisy-input values. *)
let remap sens vs =
  ( Array.map (Sensitivity.rho_at_voltage sens) vs,
    Array.map (Sensitivity.drho_dv_at_voltage sens) vs )

let rho_eff sens (ctx : Technique.ctx) ts =
  remap sens (Array.map (Waveform.Wave.value_at ctx.noisy_in) ts)

(* The fit runs in a centered, nanosecond-scaled time frame so the
   Gauss-Newton normal equations are well conditioned (raw SI slopes
   are ~1e9 V/s against intercepts of ~1 V). *)
let time_scale = 1e-9

(* Gamma_eff is a *saturated* ramp: where the line has already hit a
   rail, the input deviation is measured against the rail, not against
   the extrapolated line. Ignoring this drags the fit toward late
   glitch samples (the line extrapolates volts above Vdd there) and is
   the difference between a stable and a wildly tilting fit. Equal to
   [Float.min vdd (Float.max 0.0 x)] on every input, -0.0 and nan
   included. *)
let[@inline] clip vdd x = if x <= 0.0 then 0.0 else if x >= vdd then vdd else x

(* Eq. 3's residual at one sample: rho e + 1/2 drho e^2 (rho e without
   the second-order term). *)
let[@inline] residual second_order rho drho e =
  if second_order then (rho *. e) +. (0.5 *. drho *. e *. e) else rho *. e

(* Voltage-level matching transplants the *transient* sensitivity of
   the noiseless transition onto every sample at the same voltage —
   including samples taken long after the receiver's output has
   committed, where the true sensitivity is the (tiny) DC gain. Once
   the output has settled, input noise that never re-crosses 0.5 Vdd
   cannot move the transition, so samples past the estimated commit
   time carry no weight. The commit time is the latest noisy mid
   crossing plus the noiseless input-mid-to-output-settle margin. *)
let output_commit_time ctx =
  match Arc.commit_margin (arc ctx) with
  | Some margin -> latest_mid_crossing ctx +. margin
  | None -> infinity

(* The noisy view the predicate and the fit share: the sample times
   over the noisy critical region, the noisy values there, and rho_eff
   and d rho_eff / d v_in at those values, masked past the commit
   time. [prepare] raises [Unsupported] where [run] always did, in the
   same order, ending with a mask that leaves no sensitivity. *)
type view = {
  region : float * float;
  ts : float array;
  vs : float array;
  rho : float array;
  drho : float array;
}

let prepare options ctx =
  let shift =
    if options.align_non_overlapping then Sensitivity.overlap_shift ctx else 0.0
  in
  let sens = Sensitivity.compute ~output_shift:shift ctx in
  let region = noisy_critical_region ctx in
  let ts = sample_times region ctx.samples in
  let vs = Array.map (Waveform.Wave.value_at ctx.noisy_in) ts in
  let rho, drho = remap sens vs in
  let t_cut =
    if options.commit_masking then output_commit_time ctx else infinity
  in
  Array.iteri
    (fun k t ->
      if t > t_cut then begin
        rho.(k) <- 0.0;
        drho.(k) <- 0.0
      end)
    ts;
  let peak = Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 rho in
  if peak = 0.0 then raise (Unsupported "SGDP: zero effective sensitivity");
  { region; ts; vs; rho; drho }

(* Paper Eq. 3 by Gauss-Newton over (a, b) in the scaled frame, with
   e_k = v_k - clip(a tau_k + b). The Jacobian row of sample k is
   -(rho_k + drho_k e_k) (tau_k, 1) (-rho_k (tau_k, 1) without the
   second-order term) where the line is inside the rails, and 0 where
   it is clipped. [cost] and [normal] sum over the samples in order and
   build no rows. *)
let fit options ctx { ts; vs; rho; drho; _ } =
  let vdd = ctx.th.Waveform.Thresholds.vdd in
  let n = Array.length ts in
  let tbar = Array.fold_left ( +. ) 0.0 ts /. float_of_int n in
  let tau = Array.map (fun t -> (t -. tbar) /. time_scale) ts in
  (* Seed: a ramp with the noiseless slew anchored at the latest noisy
     0.5 Vdd crossing. It is always physically sane, it saturates over
     any secondary glitch, and the Gauss-Newton refinement below then
     pulls it onto the samples the output actually cares about. *)
  let seed =
    match Arc.slew (arc ctx) with
    | Some s when s > 0.0 ->
        Waveform.Ramp.of_arrival_slew ~arrival:(latest_mid_crossing ctx)
          ~slew:s ~dir:(direction ctx) ctx.th
    | _ -> raise (Unsupported "SGDP: noiseless waveform has no slew")
  in
  let a0 = (seed : Waveform.Ramp.t).slope *. time_scale in
  let b0 = seed.intercept +. (seed.slope *. tbar) in
  let second_order = options.second_order in
  let cost a b =
    let c = ref 0.0 in
    for k = 0 to n - 1 do
      let e = vs.(k) -. clip vdd ((a *. tau.(k)) +. b) in
      let r = residual second_order rho.(k) drho.(k) e in
      c := !c +. (r *. r)
    done;
    !c
  in
  let normal a b =
    let a00 = ref 0.0 and a01 = ref 0.0 and a11 = ref 0.0 in
    let g0 = ref 0.0 and g1 = ref 0.0 in
    for k = 0 to n - 1 do
      let raw = (a *. tau.(k)) +. b in
      let e = vs.(k) -. clip vdd raw in
      let r = residual second_order rho.(k) drho.(k) e in
      let clipped = raw <= 0.0 || raw >= vdd in
      let de = if second_order then rho.(k) +. (drho.(k) *. e) else rho.(k) in
      let j0 = if clipped then 0.0 else -.de *. tau.(k) in
      let j1 = if clipped then 0.0 else -.de in
      g0 := !g0 -. (j0 *. r);
      a00 := !a00 +. (j0 *. j0);
      a01 := !a01 +. (j0 *. j1);
      g1 := !g1 -. (j1 *. r);
      a11 := !a11 +. (j1 *. j1)
    done;
    { Numerics.Lsq.a00 = !a00; a01 = !a01; a11 = !a11; g0 = !g0; g1 = !g1 }
  in
  let slope_scaled, intercept_scaled =
    Numerics.Lsq.gauss_newton ~max_iter:options.gn_iterations ~cost ~normal
      (a0, b0)
  in
  if slope_scaled = 0.0 then raise (Unsupported "SGDP: flat fit");
  let slope = slope_scaled /. time_scale in
  let intercept = intercept_scaled -. (slope *. tbar) in
  Technique.check_polarity ctx (Waveform.Ramp.make ~slope ~intercept ~vdd)

let make options =
  {
    name = "SGDP";
    describe = "sensitivity remapped onto the noisy region, Taylor fit";
    applicable =
      (fun ctx ->
        let ( let* ) = Result.bind in
        let* () =
          require
            (noisy_critical_region_opt ctx <> None)
            "SGDP: noisy waveform does not span the thresholds"
        in
        let* () =
          require
            (latest_mid_crossing_opt ctx <> None)
            "SGDP: noisy waveform never crosses 0.5 Vdd"
        in
        let* () =
          match Arc.slew (arc ctx) with
          | Some s when s > 0.0 -> Ok ()
          | _ -> Error "SGDP: noiseless waveform has no slew"
        in
        (* Everything the run checks except the Gauss-Newton iterations,
           plus a rho^2-weighted trend as a polarity estimate of the
           eventual fit (run keeps check_polarity as the post-fit safety
           net). *)
        match
          let { region; rho; _ } = prepare options ctx in
          let weights = Array.map (fun r -> r *. r) rho in
          polarity_of_trend ~what:"SGDP" ctx (trend ~weights ctx region)
        with
        | r -> r
        | exception Unsupported reason -> Error reason);
    run = (fun ctx -> fit options ctx (prepare options ctx));
  }

let sgdp = make default_options
