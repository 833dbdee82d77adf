(** Asymptotic waveform evaluation (AWE): moment matching on arbitrary
    linear RC circuits.

    Works on any [Spice.Circuit.t] containing only linear elements —
    including the coupled buses of the noise experiments — by the
    classical MNA recursion

      G x_0 = b,   G x_k = -C x_{k-1}

    so that the voltage transfer from a chosen source to any node is
    H(s) = sum_k m_k s^k with m_k = x_k(node). A Pade approximation
    with q real poles then gives closed-form step responses and delay
    estimates orders of magnitude faster than transient simulation —
    the classical fast path of interconnect analysis (Pillage &
    Rohrer's AWE). *)

type moments = float array
(** m_0 .. m_n of a voltage transfer function (m_0 = 1 for a
    DC-connected RC path). *)

val moments_of_circuit :
  Spice.Circuit.t -> input:string -> output:string -> order:int -> moments
(** [moments_of_circuit ckt ~input ~output ~order] computes
    m_0 .. m_order of V(output)/V(input), where [input] names a node
    driven by a voltage source (the stimulus; every other source is
    zeroed). Raises [Invalid_argument] if the circuit contains MOSFETs,
    if [input] has no voltage source, or if a name is unknown. *)

type model = {
  poles : float array;    (** real, negative for passive RC *)
  residues : float array;
  dc : float;             (** H(0) *)
}

val pade : ?q:int -> moments -> model
(** Fit a [q]-pole (default 2; 1 and 2 supported) model to the leading moments.
    Falls back to a single-pole fit when the higher-order system is
    numerically singular or produces non-negative / complex poles
    (standard AWE practice). Raises [Failure] when even the one-pole
    fit is impossible (zero first moment). *)

val step_response : model -> float -> float
(** [step_response m t] is the response at time [t >= 0] to a unit step
    through the modeled transfer (response to H at DC = [dc]). *)

val delay : ?frac:float -> model -> float
(** Time for the unit-step response to reach [frac] (default 0.5) of
    its final value. Raises [Failure] if the response never does
    (non-monotone model with pathological residues). *)
