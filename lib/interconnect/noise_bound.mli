(** Devgan-style crosstalk noise upper bound on a coupled RC line.

    Devgan's metric (ICCAD'97): for a victim RC tree whose coupling
    capacitors see an aggressor ramping with bounded slew rate mu
    (V/s), the peak noise at node i is bounded by

      V_i <= sum_j R(i, j) * Cm_j * mu

    where R(i, j) is the shared path resistance to the tree root (the
    holding driver). The bound is conservative — exact in the limit of
    slow aggressors — and needs no transient simulation, which is why
    noise-aware STA uses it for fast filtering before waveform-accurate
    analysis. *)

val line_bound :
  driver_resistance:float -> line:Rcline.spec -> cm_total:float ->
  aggressor_slew_rate:float -> float
(** The far-end bound for the uniform coupled line of the experiments,
    a ladder held by [driver_resistance], with the coupling distributed
    evenly along the line, in closed form. *)
