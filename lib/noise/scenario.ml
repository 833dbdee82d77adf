type t = {
  name : string;
  proc : Device.Process.t;
  n_aggressors : int;
  line : Interconnect.Rcline.spec;
  cm_total : float;
  input_slew : float;
  victim_rising : bool;
  aggressor_rising : bool;
  victim_t0 : float;
  window : float;
  window_offset : float;
  cases : int;
  dt : float;
  tstop : float;
  receiver : Device.Cell.t;
  load : Device.Cell.t;
}

(* Figure 1 values: R = 8.5 ohm and C = 4.8 fF per drawn section, three
   sections per 1000 um wire. We discretize with 6 sections while
   conserving the total R and C. *)
let line_1000um =
  Interconnect.Rcline.
    { rtotal = 3.0 *. 8.5; ctotal = 3.0 *. 4.8e-15; nsegs = 6 }

let line_500um =
  Interconnect.Rcline.
    { rtotal = 1.5 *. 8.5; ctotal = 1.5 *. 4.8e-15; nsegs = 6 }

let config_i =
  {
    name = "Configuration I";
    proc = Device.Process.c13;
    n_aggressors = 1;
    line = line_1000um;
    cm_total = 100e-15;
    input_slew = 150e-12;
    victim_rising = true;
    aggressor_rising = false;
    victim_t0 = 1.2e-9;
    window = 1.0e-9;
    window_offset = -0.28e-9;
    cases = 200;
    dt = 2e-12;
    tstop = 3.6e-9;
    receiver = Device.Cell.inv_x16;
    load = Device.Cell.inv_x64;
  }

let config_ii =
  {
    config_i with
    name = "Configuration II";
    n_aggressors = 2;
    line = line_500um;
  }

(* The non-overlapping-transition extension: a two-stage buffer receiver
   whose intrinsic delay separates the input and output transitions --
   the case the paper says WLS5 cannot handle and SGDP's pre-shift
   fixes. *)
let config_i_buffer =
  {
    config_i with
    name = "Configuration I (BUFx16 receiver)";
    receiver = Device.Cell.buf_x16;
  }

let with_cases t cases = { t with cases }

(* Everything that shapes a simulation of this scenario, in lossless
   hex floats. The record is destructured whole, so a new field does not
   compile until it is rendered here or bound to [_]. [name] is a label,
   and [window]/[window_offset]/[cases] are sweep bookkeeping: they
   choose *which* taus get simulated, not what any single
   (scenario, tau) simulation computes, so cached cases stay valid when
   only the sweep changes. The process and the cells are keyed by
   name. *)
let fingerprint
    {
      name = _;
      proc;
      n_aggressors;
      line = { Interconnect.Rcline.rtotal; ctotal; nsegs };
      cm_total;
      input_slew;
      victim_rising;
      aggressor_rising;
      victim_t0;
      window = _;
      window_offset = _;
      cases = _;
      dt;
      tstop;
      receiver;
      load;
    } =
  let f = Printf.sprintf "%h" in
  String.concat "|"
    [
      "scenario";
      proc.Device.Process.name;
      string_of_int n_aggressors;
      f rtotal;
      f ctotal;
      string_of_int nsegs;
      f cm_total;
      f input_slew;
      string_of_bool victim_rising;
      string_of_bool aggressor_rising;
      f victim_t0;
      f dt;
      f tstop;
      receiver.Device.Cell.name;
      load.Device.Cell.name;
    ]

let taus t =
  if t.cases < 1 then invalid_arg "Scenario.taus: no cases";
  let lo = t.victim_t0 +. t.window_offset -. (t.window /. 2.0) in
  if t.cases = 1 then [| t.victim_t0 +. t.window_offset |]
  else
    Array.init t.cases (fun i ->
        lo +. (t.window *. float_of_int i /. float_of_int (t.cases - 1)))

(* The victim sits between the aggressors when there are two of them
   (Config II's x1 / y / x2 arrangement); with one aggressor the order
   is victim first. *)
let line_order t =
  match t.n_aggressors with
  | 1 -> [ `Victim; `Aggressor 0 ]
  | 2 -> [ `Aggressor 0; `Victim; `Aggressor 1 ]
  | n ->
      List.init (n + 1) (fun i -> if i = 0 then `Victim else `Aggressor (i - 1))

let victim_line_index t =
  let rec find i = function
    | `Victim :: _ -> i
    | `Aggressor _ :: rest -> find (i + 1) rest
    | [] -> invalid_arg "Scenario.victim_line_index"
  in
  find 0 (line_order t)

let chain_prefix t k =
  if k = victim_line_index t then "vic" else Printf.sprintf "agg%d" k

let victim_far_node t =
  Printf.sprintf "bus%d.%d" (victim_line_index t) t.line.Interconnect.Rcline.nsegs

let victim_rcv_node t = chain_prefix t (victim_line_index t) ^ ".rcv"

let chain_cells t = Device.Cell.(inv_x1, inv_x4, t.receiver, t.load)

(* One signal path: source -> INVx1 -> INVx4 -> (near end of its line);
   the far ends are wired to receiver -> load below. *)
let build t ~aggressor_active ~tau =
  let open Spice in
  let x1, x4, rcv_cell, load_cell = chain_cells t in
  let proc = t.proc in
  let vdd_v = proc.Device.Process.vdd in
  let ckt = Circuit.create () in
  let vdd = Device.Cell.attach_supply proc ckt in
  let hints = ref [ ("vdd", vdd_v) ] in
  let hint name v = hints := (name, v) :: !hints in
  let order = line_order t in
  (* Full-swing ramp duration for the requested 10-90 slew. *)
  let th = Device.Process.thresholds proc in
  let frac =
    th.Waveform.Thresholds.high_frac -. th.Waveform.Thresholds.low_frac
  in
  let trans = t.input_slew /. frac in
  let front_end k role =
    let p = chain_prefix t k in
    let input = Circuit.node ckt (p ^ ".in") in
    let d1 = Circuit.node ckt (p ^ ".d1") in
    let near = Circuit.node ckt (p ^ ".near") in
    let rising, active, t0 =
      match role with
      | `Victim -> (t.victim_rising, true, t.victim_t0)
      | `Aggressor _ -> (t.aggressor_rising, aggressor_active, tau)
    in
    let v0, v1 = if rising then (0.0, vdd_v) else (vdd_v, 0.0) in
    let src =
      if active then Source.ramp ~t0 ~v0 ~v1 ~trans else Source.dc v0
    in
    Circuit.vsource ckt input src;
    Device.Cell.instantiate proc x1 ~ckt ~input ~output:d1 ~vdd_node:vdd
      ~name:(p ^ ".u1");
    Device.Cell.instantiate proc x4 ~ckt ~input:d1 ~output:near ~vdd_node:vdd
      ~name:(p ^ ".u4");
    (* Logic levels before the transition, for the DC solve. *)
    hint (p ^ ".in") v0;
    hint (p ^ ".d1") (vdd_v -. v0);
    hint (p ^ ".near") v0;
    (near, v0)
  in
  let fronts = List.mapi (fun k role -> front_end k role) order in
  let nears = List.map fst fronts in
  let spec =
    Interconnect.Coupled.make ~line:t.line
      ~nlines:(List.length order)
      ~cm_total:t.cm_total
  in
  let fars = Interconnect.Coupled.build ckt ~prefix:"bus" ~nears spec in
  List.iteri
    (fun k far ->
      let p = chain_prefix t k in
      let v0 = snd (List.nth fronts k) in
      let rcv = Circuit.node ckt (p ^ ".rcv") in
      let buf = Circuit.node ckt (p ^ ".buf") in
      Device.Cell.instantiate proc rcv_cell ~ckt ~input:far ~output:rcv
        ~vdd_node:vdd ~name:(p ^ ".u16");
      Device.Cell.instantiate proc load_cell ~ckt ~input:rcv ~output:buf
        ~vdd_node:vdd ~name:(p ^ ".u64");
      (* Line boundaries idle at the near-end driver level. *)
      for i = 1 to t.line.Interconnect.Rcline.nsegs do
        hint (Printf.sprintf "bus%d.%d" k i) v0
      done;
      let rcv_v =
        if Device.Cell.inverting rcv_cell then vdd_v -. v0 else v0
      in
      hint (p ^ ".rcv") rcv_v;
      let buf_v =
        if Device.Cell.inverting load_cell then vdd_v -. rcv_v else rcv_v
      in
      hint (p ^ ".buf") buf_v)
    fars;
  (ckt, !hints)
