(* Hot path: called per waveform lookup. The grid is validated where
   arrays enter the system (Wave.create, Nldm.table, resample), not on
   every probe. *)
let bracket xs x =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Interp: grid needs at least 2 points";
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    (* Binary search for the interval containing x. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear xs ys x =
  if Array.length xs <> Array.length ys then
    invalid_arg "Interp.linear: size mismatch";
  let i = bracket xs x in
  let t = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
  ys.(i) +. (t *. (ys.(i + 1) -. ys.(i)))

let bilinear xs ys z x y =
  if Array.length z <> Array.length xs then
    invalid_arg "Interp.bilinear: row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length ys then
        invalid_arg "Interp.bilinear: column count mismatch")
    z;
  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v in
  let x = clamp xs.(0) xs.(Array.length xs - 1) x in
  let y = clamp ys.(0) ys.(Array.length ys - 1) y in
  let i = bracket xs x and j = bracket ys y in
  let tx = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
  let ty = (y -. ys.(j)) /. (ys.(j + 1) -. ys.(j)) in
  let z00 = z.(i).(j)
  and z01 = z.(i).(j + 1)
  and z10 = z.(i + 1).(j)
  and z11 = z.(i + 1).(j + 1) in
  ((1.0 -. tx) *. (1.0 -. ty) *. z00)
  +. ((1.0 -. tx) *. ty *. z01)
  +. (tx *. (1.0 -. ty) *. z10)
  +. (tx *. ty *. z11)

let derivative xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Interp.derivative: size";
  if n < 2 then invalid_arg "Interp.derivative: need 2 points";
  Array.init n (fun i ->
      if i = 0 then (ys.(1) -. ys.(0)) /. (xs.(1) -. xs.(0))
      else if i = n - 1 then
        (ys.(n - 1) -. ys.(n - 2)) /. (xs.(n - 1) -. xs.(n - 2))
      else (ys.(i + 1) -. ys.(i - 1)) /. (xs.(i + 1) -. xs.(i - 1)))
