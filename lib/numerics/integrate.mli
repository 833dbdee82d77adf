(** Quadrature over sampled data. *)

val trapz : float array -> float array -> float
(** [trapz xs ys] is the trapezoidal integral of the sampled curve.
    Raises [Invalid_argument] on size mismatch or fewer than 2 points. *)
