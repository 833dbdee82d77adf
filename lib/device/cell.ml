type kind =
  | Inverter
  | Buffer of int
  | Nand2
  | Nor2

type t = { name : string; kind : kind; drive : int; wn : float; wp : float }

(* Unit inverter: 0.4 um NMOS, 0.8 um PMOS -- roughly balanced rise and
   fall drive at the c13 corner's 2.1x N/P mobility ratio. *)
let unit_wn = 0.4e-6
let unit_wp = 0.8e-6

let check_drive drive =
  if drive < 1 then invalid_arg "Cell: drive must be >= 1"

let inv (_proc : Process.t) ~drive =
  check_drive drive;
  {
    name = Printf.sprintf "INVx%d" drive;
    kind = Inverter;
    drive;
    wn = unit_wn *. float_of_int drive;
    wp = unit_wp *. float_of_int drive;
  }

let buf (_proc : Process.t) ~drive =
  check_drive drive;
  {
    name = Printf.sprintf "BUFx%d" drive;
    kind = Buffer 4;
    drive;
    wn = unit_wn *. float_of_int drive;
    wp = unit_wp *. float_of_int drive;
  }

(* Series NMOS stack doubled in width so the pull-down matches the
   inverter's worst-case drive; PMOS in parallel at inverter width. *)
let nand2 (_proc : Process.t) ~drive =
  check_drive drive;
  {
    name = Printf.sprintf "NAND2x%d" drive;
    kind = Nand2;
    drive;
    wn = 2.0 *. unit_wn *. float_of_int drive;
    wp = unit_wp *. float_of_int drive;
  }

let nor2 (_proc : Process.t) ~drive =
  check_drive drive;
  {
    name = Printf.sprintf "NOR2x%d" drive;
    kind = Nor2;
    drive;
    wn = unit_wn *. float_of_int drive;
    wp = 2.0 *. unit_wp *. float_of_int drive;
  }

let inv_x1 = inv Process.c13 ~drive:1
let inv_x4 = inv Process.c13 ~drive:4
let inv_x16 = inv Process.c13 ~drive:16
let inv_x64 = inv Process.c13 ~drive:64
let buf_x16 = buf Process.c13 ~drive:16

let inverting cell =
  match cell.kind with
  | Inverter | Nand2 | Nor2 -> true
  | Buffer _ -> false

let first_stage_drive cell divisor = Int.max 1 (cell.drive / divisor)

let input_cap (proc : Process.t) cell =
  let per_width = proc.Process.cg_per_width +. proc.Process.cgd_per_width in
  match cell.kind with
  | Inverter | Nand2 | Nor2 ->
      (* The timed pin sees one NMOS and one PMOS gate. *)
      per_width *. (cell.wn +. cell.wp)
  | Buffer divisor ->
      let d1 = float_of_int (first_stage_drive cell divisor) in
      per_width *. ((unit_wn +. unit_wp) *. d1)

let stamp_inverter proc ~ckt ~input ~output ~vdd_node ~name ~wn ~wp =
  let open Spice in
  Circuit.mosfet ckt ~name:(name ^ ".mn") ~g:input ~d:output
    ~s:(Circuit.gnd ckt)
    (Mosfet.nmos proc ~width:wn);
  Circuit.mosfet ckt ~name:(name ^ ".mp") ~g:input ~d:output ~s:vdd_node
    (Mosfet.pmos proc ~width:wp);
  let w = wn +. wp in
  Circuit.capacitor ckt input (Circuit.gnd ckt)
    (proc.Process.cg_per_width *. w);
  Circuit.capacitor ckt input output (proc.Process.cgd_per_width *. w);
  Circuit.capacitor ckt output (Circuit.gnd ckt)
    (proc.Process.cd_per_width *. w)

let instantiate proc cell ~ckt ~input ~output ~vdd_node ~name =
  let open Spice in
  let gnd = Circuit.gnd ckt in
  match cell.kind with
  | Inverter ->
      stamp_inverter proc ~ckt ~input ~output ~vdd_node ~name ~wn:cell.wn
        ~wp:cell.wp
  | Buffer divisor ->
      let d1 = float_of_int (first_stage_drive cell divisor) in
      let mid = Circuit.node ckt (name ^ ".mid") in
      stamp_inverter proc ~ckt ~input ~output:mid ~vdd_node
        ~name:(name ^ ".s1") ~wn:(unit_wn *. d1) ~wp:(unit_wp *. d1);
      stamp_inverter proc ~ckt ~input:mid ~output ~vdd_node
        ~name:(name ^ ".s2") ~wn:cell.wn ~wp:cell.wp
  | Nand2 ->
      (* Pin A is the timed input; pin B is tied high (non-controlling)
         so the cell exercises its characterized arc. The series stack
         keeps the internal node explicit. *)
      let mid = Circuit.node ckt (name ^ ".x") in
      Circuit.mosfet ckt ~name:(name ^ ".mna") ~g:input ~d:output ~s:mid
        (Mosfet.nmos proc ~width:cell.wn);
      Circuit.mosfet ckt ~name:(name ^ ".mnb") ~g:vdd_node ~d:mid ~s:gnd
        (Mosfet.nmos proc ~width:cell.wn);
      Circuit.mosfet ckt ~name:(name ^ ".mpa") ~g:input ~d:output ~s:vdd_node
        (Mosfet.pmos proc ~width:cell.wp);
      (* The pin-B PMOS (gate high) never conducts; it only loads the
         output with junction capacitance, folded into the cap below. *)
      let wa = cell.wn +. cell.wp in
      Circuit.capacitor ckt input gnd (proc.Process.cg_per_width *. wa);
      Circuit.capacitor ckt input output (proc.Process.cgd_per_width *. wa);
      Circuit.capacitor ckt output gnd
        (proc.Process.cd_per_width *. (cell.wn +. (2.0 *. cell.wp)));
      Circuit.capacitor ckt mid gnd (proc.Process.cd_per_width *. cell.wn)
  | Nor2 ->
      (* Pin A timed; pin B tied low. Series PMOS stack with an explicit
         internal node; the pin-B NMOS never conducts. *)
      let mid = Circuit.node ckt (name ^ ".x") in
      Circuit.mosfet ckt ~name:(name ^ ".mpb") ~g:gnd ~d:mid ~s:vdd_node
        (Mosfet.pmos proc ~width:cell.wp);
      Circuit.mosfet ckt ~name:(name ^ ".mpa") ~g:input ~d:output ~s:mid
        (Mosfet.pmos proc ~width:cell.wp);
      Circuit.mosfet ckt ~name:(name ^ ".mna") ~g:input ~d:output ~s:gnd
        (Mosfet.nmos proc ~width:cell.wn);
      let wa = cell.wn +. cell.wp in
      Circuit.capacitor ckt input gnd (proc.Process.cg_per_width *. wa);
      Circuit.capacitor ckt input output (proc.Process.cgd_per_width *. wa);
      Circuit.capacitor ckt output gnd
        (proc.Process.cd_per_width *. ((2.0 *. cell.wn) +. cell.wp));
      Circuit.capacitor ckt mid gnd (proc.Process.cd_per_width *. cell.wp)

let attach_supply proc ckt =
  let open Spice in
  let vdd = Circuit.node ckt "vdd" in
  Circuit.vsource ckt vdd (Source.dc proc.Process.vdd);
  vdd
