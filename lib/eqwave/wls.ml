open Technique

(* Relative floor added to the squared weights so the normal equations
   stay solvable when the noise pushes the transition entirely outside
   the noiseless critical region (WLS5 then degrades gracefully instead
   of crashing — matching the paper's observation that it
   underestimates in exactly those cases). *)
let weights_floor = 1e-6

let wls5 =
  {
    name = "WLS5";
    describe = "rho-weighted least squares over the noiseless region";
    applicable =
      (fun ctx ->
        match noiseless_critical_region_opt ctx with
        | None -> Error "WLS5: noiseless input does not span the thresholds"
        | Some region -> (
            (* Probe sensitivity and the rho^2-weighted trend: the trend
               sign equals the sign of the slope the weighted fit would
               produce, so polarity contradictions and flat fits are
               rejected before fitting. *)
            match
              let sens = Sensitivity.compute ctx in
              let ts = sample_times region ctx.samples in
              let rho = Array.map (Sensitivity.rho_at_time sens) ts in
              let peak =
                Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 rho
              in
              if peak = 0.0 then
                Error "WLS5: zero sensitivity (non-overlapping gate?)"
              else begin
                let floor = weights_floor *. peak *. peak in
                let weights = Array.map (fun r -> (r *. r) +. floor) rho in
                polarity_of_trend ~what:"WLS5" ctx (trend ~weights ctx region)
              end
            with
            | r -> r
            | exception Unsupported reason -> Error reason));
    run =
      (fun ctx ->
        let sens = Sensitivity.compute ctx in
        let region = noiseless_critical_region ctx in
        let ts = sample_times region ctx.samples in
        let vs = Array.map (Waveform.Wave.value_at ctx.noisy_in) ts in
        let rho = Array.map (Sensitivity.rho_at_time sens) ts in
        let peak = Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 rho in
        if peak = 0.0 then
          raise (Unsupported "WLS5: zero sensitivity (non-overlapping gate?)");
        let floor = weights_floor *. peak *. peak in
        let weights = Array.map (fun r -> (r *. r) +. floor) rho in
        let line =
          try Numerics.Lsq.fit_line ~weights ts vs
          with Failure _ -> raise (Unsupported "WLS5: degenerate fit")
        in
        if line.Numerics.Lsq.slope = 0.0 then
          raise (Unsupported "WLS5: flat fit");
        check_polarity ctx
          (Waveform.Ramp.of_line line ~vdd:ctx.th.Waveform.Thresholds.vdd));
  }
