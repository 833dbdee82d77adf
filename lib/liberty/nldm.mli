(** Non-linear delay model tables.

    The paper stresses that SGDP "is compatible with the current level
    of gate characterization in conventional ASIC cell libraries": a
    technique reduces the noisy waveform to (arrival, slew), and the
    cell's behaviour is then read from standard NLDM tables indexed by
    input slew and output load. These are those tables. *)

type table = {
  slews : float array;  (** input transition times, seconds, increasing *)
  loads : float array;  (** output loads, farads, increasing *)
  values : float array array; (** values.(i).(j) at slews.(i), loads.(j) *)
}

val table : slews:float array -> loads:float array -> values:float array array -> table
(** Validates monotone axes and rectangular values. *)

val lookup : table -> slew:float -> load:float -> float
(** Bilinear interpolation, clamped at the table edges. *)

type arc = {
  delay : table; (** mid-input to mid-output crossing *)
  trans : table; (** output 10-90 transition time *)
}

type cell_timing = {
  cell : string;
  input_cap : float;
  inverting : bool; (** negative-unate (inverter/NAND/NOR arcs) when true *)
  out_rise : arc;   (** arc producing a rising output *)
  out_fall : arc;   (** arc producing a falling output *)
}

val output_dir :
  cell_timing -> Waveform.Wave.direction -> Waveform.Wave.direction
(** Output edge direction for a given input edge. *)

val gate_delay :
  cell_timing -> input_dir:Waveform.Wave.direction -> slew:float ->
  load:float -> float * float
(** [(delay, output_slew)] for the given stimulus. *)
