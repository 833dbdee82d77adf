open Technique

let anchored_ramp ctx ~slew =
  if slew <= 0.0 then raise (Unsupported "point-based: non-positive slew");
  let arrival = latest_mid_crossing ctx in
  Waveform.Ramp.of_arrival_slew ~arrival ~slew ~dir:(direction ctx) ctx.th

(* The point-based ramps take their polarity from the transition
   direction itself, so only the anchor and slew preconditions can
   reject a context. *)
let p1 =
  {
    name = "P1";
    describe = "noiseless slew, latest noisy 0.5Vdd arrival";
    applicable =
      (fun ctx ->
        let ( let* ) = Result.bind in
        let* () =
          match Arc.slew (arc ctx) with
          | Some slew when slew > 0.0 -> Ok ()
          | _ -> Error "P1: noiseless waveform has no slew"
        in
        require
          (latest_mid_crossing_opt ctx <> None)
          "P1: noisy waveform never crosses 0.5 Vdd");
    run =
      (fun ctx ->
        match Arc.slew (arc ctx) with
        | Some slew -> anchored_ramp ctx ~slew
        | None -> raise (Unsupported "P1: noiseless waveform has no slew"));
  }

let p2 =
  {
    name = "P2";
    describe = "earliest-to-latest noisy threshold span as slew";
    applicable =
      (fun ctx ->
        let ( let* ) = Result.bind in
        let* () =
          require
            (noisy_critical_region_opt ctx <> None)
            "P2: noisy waveform does not span the thresholds"
        in
        require
          (latest_mid_crossing_opt ctx <> None)
          "P2: noisy waveform never crosses 0.5 Vdd");
    run =
      (fun ctx ->
        let a, b = noisy_critical_region ctx in
        anchored_ramp ctx ~slew:(b -. a));
  }
