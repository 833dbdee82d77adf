type t =
  | Dc of float
  | Pwl of (float * float) array
  | Wave of Waveform.Wave.t
  | Ramp of Waveform.Ramp.t

let dc v = Dc v

let pwl pts =
  let a = Array.of_list pts in
  if Array.length a < 2 then invalid_arg "Source.pwl: need 2 points";
  for i = 0 to Array.length a - 2 do
    if fst a.(i + 1) <= fst a.(i) then
      invalid_arg "Source.pwl: times must be strictly increasing"
  done;
  Pwl a

let ramp ~t0 ~v0 ~v1 ~trans =
  if trans <= 0.0 then invalid_arg "Source.ramp: trans must be positive";
  pwl [ (t0, v0); (t0 +. trans, v1) ]

let of_wave w = Wave w
let of_ramp r = Ramp r

let value src t =
  match src with
  | Dc v -> v
  | Wave w -> Waveform.Wave.value_at w t
  | Ramp r -> Waveform.Ramp.value_at r t
  | Pwl a ->
      let n = Array.length a in
      if t <= fst a.(0) then snd a.(0)
      else if t >= fst a.(n - 1) then snd a.(n - 1)
      else begin
        let rec find i = if fst a.(i + 1) >= t then i else find (i + 1) in
        let i = find 0 in
        let t0, v0 = a.(i) and t1, v1 = a.(i + 1) in
        v0 +. ((t -. t0) /. (t1 -. t0) *. (v1 -. v0))
      end

let fingerprint = function
  | Dc v -> Printf.sprintf "dc:%h" v
  | Pwl a -> "pwl:" ^ Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Wave w ->
      "wave:"
      ^ Digest.to_hex
          (Digest.string
             (Marshal.to_string
                (Waveform.Wave.times w, Waveform.Wave.values w)
                []))
  | Ramp r ->
      (* Begin/settle times plus their values pin down a saturated
         ramp completely. *)
      let t0 = Waveform.Ramp.t_begin r and t1 = Waveform.Ramp.t_settle r in
      Printf.sprintf "ramp:%h:%h:%h:%h" t0 t1
        (Waveform.Ramp.value_at r t0)
        (Waveform.Ramp.value_at r t1)

let quiet_from ~tol = function
  | Dc _ -> neg_infinity
  | Pwl a -> fst a.(Array.length a - 1)
  | Ramp r -> Waveform.Ramp.t_settle r
  | Wave w ->
      let ts = Waveform.Wave.times w and vs = Waveform.Wave.values w in
      let final = vs.(Array.length vs - 1) in
      (* The last sample farther than [tol] from the final value; the
         interpolant is within [tol] from the sample after it on. *)
      let rec last_far i =
        if i < 0 then neg_infinity
        else if abs_float (vs.(i) -. final) > tol then ts.(i + 1)
        else last_far (i - 1)
      in
      last_far (Array.length vs - 1)

let breakpoints = function
  | Dc _ | Wave _ -> []
  | Pwl a -> Array.to_list (Array.map fst a)
  | Ramp r -> [ Waveform.Ramp.t_begin r; Waveform.Ramp.t_settle r ]
