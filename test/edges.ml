(* Analytic edge and glitch shapes: the synthetic waveforms the tests
   build their contexts from. Each generator is a plain function of
   time, sampled into a [Wave.t] by [sample] or [noisy_edge]. *)

open Waveform

let linear_edge ~t0 ~trans ~v0 ~v1 t =
  if trans <= 0.0 then invalid_arg "Edges.linear_edge: trans";
  if t <= t0 then v0
  else if t >= t0 +. trans then v1
  else v0 +. ((v1 -. v0) *. (t -. t0) /. trans)

let exponential_edge ~t0 ~tau ~v0 ~v1 t =
  if tau <= 0.0 then invalid_arg "Edges.exponential_edge: tau";
  if t <= t0 then v0 else v0 +. ((v1 -. v0) *. (1.0 -. exp (-.(t -. t0) /. tau)))

let raised_cosine_edge ~t0 ~trans ~v0 ~v1 t =
  if trans <= 0.0 then invalid_arg "Edges.raised_cosine_edge: trans";
  if t <= t0 then v0
  else if t >= t0 +. trans then v1
  else
    let x = (t -. t0) /. trans in
    v0 +. ((v1 -. v0) *. 0.5 *. (1.0 -. cos (Float.pi *. x)))

let triangular_glitch ~t0 ~rise ~fall ~peak t =
  if rise <= 0.0 || fall <= 0.0 then invalid_arg "Edges.triangular_glitch";
  if t <= t0 || t >= t0 +. rise +. fall then 0.0
  else if t <= t0 +. rise then peak *. (t -. t0) /. rise
  else peak *. (t0 +. rise +. fall -. t) /. fall

let decay_glitch ~t0 ~tau ~peak t =
  if tau <= 0.0 then invalid_arg "Edges.decay_glitch: tau";
  if t <= t0 then 0.0 else peak *. exp (-.(t -. t0) /. tau)

let superpose fs t = List.fold_left (fun acc f -> acc +. f t) 0.0 fs

let clamp ~vdd f t = Float.min vdd (Float.max 0.0 (f t))

let sample ?(n = 601) ~t0 ~t1 f = Wave.of_fun ~t0 ~t1 ~n f

let noisy_edge ~th ~arrival ~slew ~dir ~glitches ?span () =
  let vdd = th.Thresholds.vdd in
  let ramp = Ramp.of_arrival_slew ~arrival ~slew ~dir th in
  let base t = Ramp.value_at ramp t in
  let t0, t1 =
    match span with
    | Some (a, b) -> (a, b)
    | None ->
        let trans = Ramp.t_settle ramp -. Ramp.t_begin ramp in
        (Ramp.t_begin ramp -. (3.0 *. trans), Ramp.t_settle ramp +. (5.0 *. trans))
  in
  sample ~t0 ~t1 (clamp ~vdd (superpose (base :: glitches)))
