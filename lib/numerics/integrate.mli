(** Quadrature over sampled data. *)

val trapz : float array -> float array -> float
(** [trapz xs ys] is the trapezoidal integral of the sampled curve.
    Raises [Invalid_argument] on size mismatch or fewer than 2 points. *)

val cumulative : float array -> float array -> float array
(** [cumulative xs ys] is the running trapezoidal integral, same length
    as the input, starting at 0. *)
