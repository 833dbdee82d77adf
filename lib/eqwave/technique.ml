type ctx = {
  th : Waveform.Thresholds.t;
  noisy_in : Waveform.Wave.t;
  noiseless_in : Waveform.Wave.t;
  noiseless_out : Waveform.Wave.t;
  samples : int;
}

exception Unsupported = Arc.Unsupported

let make_ctx ?(samples = 35) ~th ~noisy_in ~noiseless_in ~noiseless_out () =
  if samples < 4 then invalid_arg "Technique.make_ctx: samples < 4";
  { th; noisy_in; noiseless_in; noiseless_out; samples }

type t = {
  name : string;
  describe : string;
  applicable : ctx -> (unit, string) result;
  run : ctx -> Waveform.Ramp.t;
}

let arc ctx = Arc.find ctx.th ctx.noiseless_in ctx.noiseless_out
let direction ctx = Arc.direction (arc ctx)

let noisy_critical_region_opt ctx =
  Arc.critical_region_opt ctx.noisy_in ctx.th (direction ctx)

let noiseless_critical_region_opt ctx = Arc.region_opt (arc ctx)

let noisy_critical_region ctx =
  Arc.critical_region ctx.noisy_in ctx.th (direction ctx)

let noiseless_critical_region ctx = Arc.region (arc ctx)
let sample_times = Arc.sample_times

let latest_mid_crossing_opt ctx =
  Waveform.Wave.last_crossing ctx.noisy_in (Waveform.Thresholds.v_mid ctx.th)

let latest_mid_crossing ctx =
  match latest_mid_crossing_opt ctx with
  | Some t -> t
  | None -> raise (Unsupported "noisy waveform never crosses 0.5 Vdd")

let check_polarity ctx ramp =
  if Waveform.Ramp.direction ramp <> direction ctx then
    raise (Unsupported "fit polarity does not match the transition");
  ramp

(* Weighted covariance of (t, v_noisy(t)) over [region]. The sign equals
   the sign of the slope a weighted least-squares line fit would produce
   (the denominator of the slope is a positive weighted variance), so a
   predicate can detect a polarity contradiction before paying for the
   fit itself. *)
let trend ?weights ctx (a, b) =
  let ts = sample_times (a, b) ctx.samples in
  let n = Array.length ts in
  let w =
    match weights with
    | Some w ->
        if Array.length w <> n then
          invalid_arg "Technique.trend: weights length mismatch";
        w
    | None -> Array.make n 1.0
  in
  let vs = Array.map (Waveform.Wave.value_at ctx.noisy_in) ts in
  let sw = ref 0.0 and swt = ref 0.0 and swv = ref 0.0 in
  for k = 0 to n - 1 do
    sw := !sw +. w.(k);
    swt := !swt +. (w.(k) *. ts.(k));
    swv := !swv +. (w.(k) *. vs.(k))
  done;
  if !sw <= 0.0 then 0.0
  else begin
    let tbar = !swt /. !sw and vbar = !swv /. !sw in
    let cov = ref 0.0 in
    for k = 0 to n - 1 do
      cov := !cov +. (w.(k) *. (ts.(k) -. tbar) *. (vs.(k) -. vbar))
    done;
    !cov
  end

let polarity_of_trend ~what ctx trend =
  let ok =
    match direction ctx with
    | Waveform.Wave.Rising -> trend > 0.0
    | Waveform.Wave.Falling -> trend < 0.0
  in
  if ok then Ok ()
  else if trend = 0.0 then Error (what ^ ": flat trend over the fit region")
  else
    Error
      (what
     ^ ": polarity contradiction: the fitted slope would oppose the transition")

let require cond reason = if cond then Ok () else Error reason
