type t = { ts : float array; vs : float array }
type direction = Rising | Falling

let pp_direction ppf = function
  | Rising -> Format.pp_print_string ppf "rising"
  | Falling -> Format.pp_print_string ppf "falling"

let create ts vs =
  let n = Array.length ts in
  if n <> Array.length vs then invalid_arg "Wave.create: size mismatch";
  if n < 2 then invalid_arg "Wave.create: need at least 2 samples";
  for i = 0 to n - 2 do
    if ts.(i + 1) <= ts.(i) then
      invalid_arg "Wave.create: times must be strictly increasing"
  done;
  { ts = Array.copy ts; vs = Array.copy vs }

let of_fun ~t0 ~t1 ~n f =
  if n < 2 then invalid_arg "Wave.of_fun: need n >= 2";
  if t1 <= t0 then invalid_arg "Wave.of_fun: empty span";
  let h = (t1 -. t0) /. float_of_int (n - 1) in
  let ts = Array.init n (fun i -> t0 +. (h *. float_of_int i)) in
  { ts; vs = Array.map f ts }

let times w = Array.copy w.ts
let values w = Array.copy w.vs
let t_start w = w.ts.(0)
let t_end w = w.ts.(Array.length w.ts - 1)

let value_at w t =
  let n = Array.length w.ts in
  if t <= w.ts.(0) then w.vs.(0)
  else if t >= w.ts.(n - 1) then w.vs.(n - 1)
  else Numerics.Interp.linear w.ts w.vs t

let shift w dt = { ts = Array.map (fun t -> t +. dt) w.ts; vs = Array.copy w.vs }
let resample w grid =
  let n = Array.length grid in
  if n < 2 then invalid_arg "Wave.resample: need 2 points";
  for i = 0 to n - 2 do
    if grid.(i + 1) <= grid.(i) then
      invalid_arg "Wave.resample: grid must be strictly increasing"
  done;
  { ts = Array.copy grid; vs = Array.map (value_at w) grid }

let crossings w level =
  let n = Array.length w.ts in
  let acc = ref [] in
  let last_was_exact = ref false in
  for i = 0 to n - 2 do
    let v0 = w.vs.(i) and v1 = w.vs.(i + 1) in
    if v0 = level then begin
      if not !last_was_exact then acc := w.ts.(i) :: !acc;
      last_was_exact := true
    end
    else begin
      last_was_exact := false;
      if (v0 -. level) *. (v1 -. level) < 0.0 then begin
        let t =
          w.ts.(i) +. ((level -. v0) /. (v1 -. v0) *. (w.ts.(i + 1) -. w.ts.(i)))
        in
        acc := t :: !acc
      end
    end
  done;
  if w.vs.(n - 1) = level && not !last_was_exact then
    acc := w.ts.(n - 1) :: !acc;
  List.rev !acc

let first_crossing w level =
  match crossings w level with [] -> None | t :: _ -> Some t

let last_crossing w level =
  match List.rev (crossings w level) with [] -> None | t :: _ -> Some t

let direction w =
  let n = Array.length w.vs in
  let v0 = w.vs.(0) and v1 = w.vs.(n - 1) in
  if v1 > v0 then Rising
  else if v1 < v0 then Falling
  else invalid_arg "Wave.direction: no transition"

let arrival w th = last_crossing w (Thresholds.v_mid th)

let slew w th =
  let lo = Thresholds.v_low th and hi = Thresholds.v_high th in
  match direction w with
  | exception Invalid_argument _ -> None
  | Rising -> (
      match (first_crossing w lo, last_crossing w hi) with
      | Some t_lo, Some t_hi when t_hi > t_lo -> Some (t_hi -. t_lo)
      | _ -> None)
  | Falling -> (
      match (first_crossing w hi, last_crossing w lo) with
      | Some t_hi, Some t_lo when t_lo > t_hi -> Some (t_lo -. t_hi)
      | _ -> None)

let derivative w =
  { ts = Array.copy w.ts; vs = Numerics.Interp.derivative w.ts w.vs }

let to_csv w =
  let buf = Buffer.create (16 * Array.length w.ts) in
  Buffer.add_string buf "t,v\n";
  Array.iteri
    (fun i t -> Buffer.add_string buf (Printf.sprintf "%.6e,%.6e\n" t w.vs.(i)))
    w.ts;
  Buffer.contents buf
