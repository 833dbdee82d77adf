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

let rho_eff sens (ctx : Technique.ctx) ts =
  let vs = Array.map (Waveform.Wave.value_at ctx.noisy_in) ts in
  ( Array.map (Sensitivity.rho_at_voltage sens) vs,
    Array.map (Sensitivity.drho_dv_at_voltage sens) vs )

(* The fit runs in a centered, nanosecond-scaled time frame so the
   Gauss-Newton normal equations are well conditioned (raw SI slopes
   are ~1e9 V/s against intercepts of ~1 V). *)
let time_scale = 1e-9

(* Gamma_eff is a *saturated* ramp: where the line has already hit a
   rail, the input deviation is measured against the rail, not against
   the extrapolated line. Ignoring this drags the fit toward late
   glitch samples (the line extrapolates volts above Vdd there) and is
   the difference between a stable and a wildly tilting fit. *)
let clip vdd x = Float.min vdd (Float.max 0.0 x)

let fit options ctx ts vs rho drho =
  let vdd = ctx.th.Waveform.Thresholds.vdd in
  let n = Array.length ts in
  let tbar = Array.fold_left ( +. ) 0.0 ts /. float_of_int n in
  let tau = Array.map (fun t -> (t -. tbar) /. time_scale) ts in
  let peak = Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 rho in
  if peak = 0.0 then raise (Unsupported "SGDP: zero effective sensitivity");
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
  let params0 =
    let a = (seed : Waveform.Ramp.t).slope *. time_scale in
    let b = seed.intercept +. (seed.slope *. tbar) in
    [| a; b |]
  in
  let line_at p k = (p.(0) *. tau.(k)) +. p.(1) in
  let err p k = vs.(k) -. clip vdd (line_at p k) in
  let residual p =
    Array.init n (fun k ->
        let e = err p k in
        if options.second_order then
          (rho.(k) *. e) +. (0.5 *. drho.(k) *. e *. e)
        else rho.(k) *. e)
  in
  let jacobian p =
    Array.init n (fun k ->
        let raw = line_at p k in
        if raw <= 0.0 || raw >= vdd then [| 0.0; 0.0 |]
        else
          let de =
            if options.second_order then rho.(k) +. (drho.(k) *. err p k)
            else rho.(k)
          in
          [| -.de *. tau.(k); -.de |])
  in
  let params =
    Numerics.Lsq.gauss_newton ~max_iter:options.gn_iterations ~residual
      ~jacobian params0
  in
  let slope_scaled = params.(0) and intercept_scaled = params.(1) in
  if slope_scaled = 0.0 then raise (Unsupported "SGDP: flat fit");
  let slope = slope_scaled /. time_scale in
  let intercept = intercept_scaled -. (slope *. tbar) in
  Technique.check_polarity ctx
    (Waveform.Ramp.make ~slope ~intercept ~vdd:ctx.th.Waveform.Thresholds.vdd)

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
        (* Effective-sensitivity probe plus a rho^2-weighted trend as a
           polarity estimate of the eventual fit — everything the full
           run checks except the Gauss-Newton iterations themselves
           (run keeps check_polarity as the post-fit safety net). *)
        match
          let shift =
            if options.align_non_overlapping then Sensitivity.overlap_shift ctx
            else 0.0
          in
          let sens = Sensitivity.compute ~output_shift:shift ctx in
          let region = noisy_critical_region ctx in
          let ts = sample_times region ctx.samples in
          let rho, _ = rho_eff sens ctx ts in
          let t_cut =
            if options.commit_masking then output_commit_time ctx else infinity
          in
          Array.iteri (fun k t -> if t > t_cut then rho.(k) <- 0.0) ts;
          let peak =
            Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 rho
          in
          if peak = 0.0 then Error "SGDP: zero effective sensitivity"
          else begin
            let weights = Array.map (fun r -> r *. r) rho in
            polarity_of_trend ~what:"SGDP" ctx (trend ~weights ctx region)
          end
        with
        | r -> r
        | exception Unsupported reason -> Error reason);
    run =
      (fun ctx ->
        let shift =
          if options.align_non_overlapping then Sensitivity.overlap_shift ctx
          else 0.0
        in
        let sens = Sensitivity.compute ~output_shift:shift ctx in
        let region = noisy_critical_region ctx in
        let ts = sample_times region ctx.samples in
        let vs = Array.map (Waveform.Wave.value_at ctx.noisy_in) ts in
        let rho, drho = rho_eff sens ctx ts in
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
        fit options ctx ts vs rho drho);
  }

let sgdp = make default_options
