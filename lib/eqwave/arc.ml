open Waveform

exception Unsupported of string

let sample_times (a, b) p =
  if p < 2 then invalid_arg "Technique.sample_times: p < 2";
  if b <= a then invalid_arg "Technique.sample_times: empty region";
  let h = (b -. a) /. float_of_int (p - 1) in
  Array.init p (fun i -> a +. (h *. float_of_int i))

let critical_region_opt wave th dir =
  let lo = Thresholds.v_low th and hi = Thresholds.v_high th in
  let from_level, to_level =
    match dir with Wave.Rising -> (lo, hi) | Wave.Falling -> (hi, lo)
  in
  match (Wave.first_crossing wave from_level, Wave.last_crossing wave to_level)
  with
  | Some a, Some b when b > a -> Some (a, b)
  | _ -> None

let spanned = function
  | Some r -> r
  | None ->
      raise
        (Unsupported "critical region: waveform does not span the thresholds")

let critical_region wave th dir = spanned (critical_region_opt wave th dir)

type sensitivity = {
  region : float * float;
  ts : float array;
  vin : float array;
  rho : float array;
  drho_dv : float array;
  output_shift : float;
  v_grid : float array;
  rho_by_v : float array;
  drho_by_v : float array;
}

(* A quantity the arc computed once, or the [Unsupported] computing it
   raised, replayed on every read. Anything else escapes the build and
   nothing is published. *)
type 'a outcome = ('a, exn) result

let capture f =
  match f () with
  | v -> Ok v
  | exception (Unsupported _ as e) -> Error e

(* A flat noiseless wave has no transition for an arc to characterize:
   unsupported, like any other waveform a technique cannot map. *)
let direction_of what wave =
  match Wave.direction wave with
  | d -> d
  | exception Invalid_argument _ -> raise (Unsupported (what ^ " is flat: no transition"))

let replay = function Ok v -> v | Error e -> raise e

type t = {
  th : Thresholds.t;
  noiseless_in : Wave.t;
  noiseless_out : Wave.t;
  direction : Wave.direction outcome;
  region : (float * float) option outcome;
  slew : float option;
  overlap_shift : float outcome;
  commit_margin : float option outcome;
  (* Sensitivity tables by (output_shift, points), newest first. The
     list is immutable and replaced whole, so a reader sees either the
     old tables or the new ones, never a half-built entry. *)
  mutable tables : (float * int * sensitivity) list;
}

(* SGDP's pre-processing delta: 0 when the noiseless input and output
   critical regions overlap in time, otherwise the gap between their
   mid-threshold crossings. *)
let compute_overlap_shift th noiseless_in noiseless_out (a1, b1) =
  (* The receiver may be inverting or not (buffers); judge the output
     edge from the waveform itself. *)
  match
    critical_region_opt noiseless_out th (direction_of "noiseless output" noiseless_out)
  with
  | Some (a2, b2) ->
      if a2 <= b1 && a1 <= b2 then 0.0
      else begin
        (* Align the 0.5 Vdd crossings. *)
        let vm = Thresholds.v_mid th in
        match
          (Wave.last_crossing noiseless_in vm, Wave.last_crossing noiseless_out vm)
        with
        | Some tmi, Some tmo -> tmo -. tmi
        | _ -> raise (Unsupported "overlap_shift: missing 0.5 Vdd crossing")
      end
  | None ->
      raise
        (Unsupported
           "overlap_shift: noiseless output does not span the thresholds")

(* The noiseless input-mid-to-output-settle margin SGDP adds to the
   latest noisy mid crossing to estimate the output commit time; [None]
   when the output never settles after the input's mid crossing. *)
let compute_commit_margin th noiseless_in noiseless_out =
  let settle_level =
    match direction_of "noiseless output" noiseless_out with
    | Wave.Rising -> Thresholds.v_high th
    | Wave.Falling -> Thresholds.v_low th
  in
  match
    ( Wave.last_crossing noiseless_in (Thresholds.v_mid th),
      Wave.last_crossing noiseless_out settle_level )
  with
  | Some t_in_mid, Some t_out_settle when t_out_settle > t_in_mid ->
      Some (t_out_settle -. t_in_mid)
  | _ -> None

let build th noiseless_in noiseless_out =
  let direction = capture (fun () -> direction_of "noiseless input" noiseless_in) in
  let region = Result.map (critical_region_opt noiseless_in th) direction in
  let overlap_shift =
    capture (fun () ->
        compute_overlap_shift th noiseless_in noiseless_out
          (spanned (replay region)))
  in
  {
    th;
    noiseless_in;
    noiseless_out;
    direction;
    region;
    slew = Wave.slew noiseless_in th;
    overlap_shift;
    commit_margin =
      capture (fun () -> compute_commit_margin th noiseless_in noiseless_out);
    tables = [];
  }

(* Arcs per domain, most recently used first. Each sits in an ephemeron
   keyed on its noiseless pair, so the table never outlives the waves:
   once a caller drops them, the arc is collected and its slot ages out
   of the list. Ephemeron queries match keys by physical identity. Like
   [tables], the list is replaced whole: threads sharing a domain can at
   worst lose an entry to each other. *)
let capacity = 8
let tables_per_arc = 4

let arcs : (Wave.t, Wave.t, t) Ephemeron.K2.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let find th noiseless_in noiseless_out =
  let cell = Domain.DLS.get arcs in
  let rec scan = function
    | [] -> None
    | e :: rest -> (
        match Ephemeron.K2.query e noiseless_in noiseless_out with
        | Some a when a.th == th || a.th = th -> Some (e, a)
        | _ -> scan rest)
  in
  let cached = !cell in
  match scan cached with
  | Some (e, a) ->
      (match cached with
      | first :: _ when first == e -> ()
      | _ -> cell := e :: List.filter (fun x -> x != e) cached);
      a
  | None ->
      let a = build th noiseless_in noiseless_out in
      cell := Ephemeron.K2.make noiseless_in noiseless_out a :: take (capacity - 1) cached;
      a

let direction a = replay a.direction
let region_opt a = replay a.region
let region a = spanned (region_opt a)
let slew a = a.slew
let overlap_shift a = replay a.overlap_shift
let commit_margin a = replay a.commit_margin

(* The noiseless input is monotone on the critical region, so [vin] is
   sorted one way or the other; normalize to ascending and keep only
   the strictly increasing spine so interpolation stays well defined
   (simulated edges can carry flat samples near the rails). *)
let build_by_voltage vin values =
  let n = Array.length vin in
  let ordered =
    if n < 2 || vin.(0) <= vin.(n - 1) then
      Array.init n (fun i -> (vin.(i), Array.map (fun v -> v.(i)) values))
    else
      Array.init n (fun i ->
          (vin.(n - 1 - i), Array.map (fun v -> v.(n - 1 - i)) values))
  in
  let kept = ref [ ordered.(0) ] in
  Array.iter
    (fun (v, ys) ->
      match !kept with
      | (vp, _) :: _ when v > vp -> kept := (v, ys) :: !kept
      | _ -> ())
    ordered;
  let pairs = Array.of_list (List.rev !kept) in
  ( Array.map fst pairs,
    Array.map (fun (_, ys) -> ys.(0)) pairs,
    Array.map (fun (_, ys) -> ys.(1)) pairs )

let sample_sensitivity a ~output_shift ~points =
  let region = region a in
  let ts = sample_times region points in
  let vin = Array.map (Wave.value_at a.noiseless_in) ts in
  (* Shift the output earlier: v_out_shifted(t) = v_out(t + shift). *)
  let vout =
    Array.map (fun tk -> Wave.value_at a.noiseless_out (tk +. output_shift)) ts
  in
  let din = Numerics.Interp.derivative ts vin in
  let dout = Numerics.Interp.derivative ts vout in
  (* Guard the ratio against the vanishing input slope at the very edge
     of the region: treat slopes below 1e-6 of the peak as zero. *)
  let din_peak = Array.fold_left (fun a d -> Float.max a (abs_float d)) 0.0 din in
  let eps = 1e-6 *. din_peak in
  let rho =
    Array.init points (fun k ->
        if abs_float din.(k) <= eps then 0.0 else dout.(k) /. din.(k))
  in
  let drho_dt = Numerics.Interp.derivative ts rho in
  let drho_dv =
    Array.init points (fun k ->
        if abs_float din.(k) <= eps then 0.0 else drho_dt.(k) /. din.(k))
  in
  let v_grid, rho_by_v, drho_by_v = build_by_voltage vin [| rho; drho_dv |] in
  { region; ts; vin; rho; drho_dv; output_shift; v_grid; rho_by_v; drho_by_v }

let sensitivity a ~output_shift ~points =
  (* Shifts match by bit pattern: 0.0 and -0.0 are different keys, as
     the stored [output_shift] field would tell them apart. *)
  let bits = Int64.bits_of_float output_shift in
  let same (shift, p, _) = p = points && Int64.equal (Int64.bits_of_float shift) bits in
  match List.find_opt same a.tables with
  | Some (_, _, s) -> s
  | None ->
      let s = sample_sensitivity a ~output_shift ~points in
      a.tables <- (output_shift, points, s) :: take (tables_per_arc - 1) a.tables;
      s
