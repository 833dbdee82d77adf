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

(* Every branch stores an unboxed float, so evaluating a Dc, Pwl or
   Ramp source allocates nothing; a Wave boxes across its lookup. *)
let value_into src buf i =
  match src with
  | Dc v -> buf.(i) <- v
  | Wave w -> buf.(i) <- Waveform.Wave.value_at w buf.(i)
  | Ramp r -> Waveform.Ramp.value_into r buf i
  | Pwl a ->
      let t = buf.(i) in
      let n = Array.length a in
      if t <= fst a.(0) then buf.(i) <- snd a.(0)
      else if t >= fst a.(n - 1) then buf.(i) <- snd a.(n - 1)
      else begin
        let k = ref 0 in
        while fst a.(!k + 1) < t do
          incr k
        done;
        let t0, v0 = a.(!k) and t1, v1 = a.(!k + 1) in
        buf.(i) <- v0 +. ((t -. t0) /. (t1 -. t0) *. (v1 -. v0))
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
