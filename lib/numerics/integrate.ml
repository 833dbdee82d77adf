let trapz xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Integrate.trapz: size mismatch";
  if n < 2 then invalid_arg "Integrate.trapz: need 2 points";
  let s = ref 0.0 in
  for i = 0 to n - 2 do
    s := !s +. (0.5 *. (ys.(i) +. ys.(i + 1)) *. (xs.(i + 1) -. xs.(i)))
  done;
  !s
