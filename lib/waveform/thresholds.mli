(** Measurement thresholds. The paper measures slew between 0.1*Vdd and
    0.9*Vdd and arrival/delay at 0.5*Vdd; all of these are configurable
    here so that the techniques never hard-code supply-dependent
    voltages. *)

type t = {
  vdd : float;       (** supply voltage, volts *)
  low_frac : float;  (** lower slew threshold as a fraction of vdd *)
  mid_frac : float;  (** arrival/delay threshold fraction *)
  high_frac : float; (** upper slew threshold fraction *)
}

val make : ?low_frac:float -> ?mid_frac:float -> ?high_frac:float -> vdd:float -> unit -> t
(** Defaults: 0.1 / 0.5 / 0.9. Raises [Invalid_argument] unless
    [0 < low < mid < high < 1] and [vdd > 0]. *)

val v_low : t -> float
val v_mid : t -> float
val v_high : t -> float
