(* Clocks, order statistics and process counters shared by every
   workload. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile of an ascending array (numpy's
   default rule), used for per-op latency percentiles. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = Int.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* First and third quartile across runs, exactly as Python's
   [statistics.quantiles(xs, n=4)] (method "exclusive") computes them,
   so run-to-run spreads match the ones acceptance is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* A tail percentile is only meaningful with at least ten samples
   beyond it. *)
let tail_ok n q = float_of_int n *. (1.0 -. q) >= 10.0

(* Restart this process's VmHWM at its current resident set (Linux
   clear_refs code 5); where that is refused the mark keeps counting
   from process start. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Peak resident set (VmHWM) of this process, MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:nan

(* Output digests: values rounded to 1e-4 ps so two commits that
   compute the same answers print the same digest. *)
type digest = Buffer.t

let digest () : digest = Buffer.create 4096
let add_ps (d : digest) s = Printf.bprintf d "%.4f;" (Float.round (s *. 1e16) /. 1e4)
let add_str (d : digest) s = Printf.bprintf d "%s;" s
let hex (d : digest) = Digest.to_hex (Digest.string (Buffer.contents d))

let rng seed salt = Random.State.make [| 0x1ed9e; seed; salt |]

(* Fisher-Yates, in place; returns the array. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
