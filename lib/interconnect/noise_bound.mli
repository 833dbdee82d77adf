(** Devgan-style crosstalk noise upper bounds on RC trees.

    Devgan's metric (ICCAD'97): for a victim RC tree whose coupling
    capacitors see an aggressor ramping with bounded slew rate mu
    (V/s), the peak noise at node i is bounded by

      V_i <= sum_j R(i, j) * Cm_j * mu

    where R(i, j) is the shared path resistance to the tree root (the
    holding driver, whose output resistance is the root's [r]). The
    bound is conservative — exact in the limit of slow aggressors —
    and needs no transient simulation, which is why noise-aware STA
    uses it for fast filtering before waveform-accurate analysis. *)

val bound :
  Rctree.t -> couplings:(string * float) list -> aggressor_slew_rate:float ->
  (string * float) list
(** [bound tree ~couplings ~aggressor_slew_rate] returns the per-node
    peak-noise bound in volts. [couplings] lists (node, Cm) pairs;
    unknown node names raise [Invalid_argument]. The driver's holding
    resistance should be modeled as the root edge [r] of the tree. *)

val line_bound :
  driver_resistance:float -> line:Rcline.spec -> cm_total:float ->
  aggressor_slew_rate:float -> float
(** Far-end {!bound} for the uniform coupled line of the experiments,
    with the coupling distributed evenly along the line, in closed form. *)
