(** Alpha-power-law MOSFET evaluation (Sakurai-Newton model).

    Currents follow the channel convention used by [Spice.Circuit]:
    positive [ids] flows from the drain terminal into the device. The
    closures are C1-smooth across the cutoff, triode and saturation
    boundaries (required for reliable Newton iteration). *)

val nmos : Process.t -> width:float -> Spice.Circuit.mosfet_eval
(** [nmos process ~width] with [width] in meters. Source/drain swap
    (vds < 0) is handled by symmetry. Raises [Invalid_argument] on a
    non-positive width. *)

val pmos : Process.t -> width:float -> Spice.Circuit.mosfet_eval
