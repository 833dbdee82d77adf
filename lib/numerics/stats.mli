(** Summary statistics for experiment reporting (Table 1 columns). *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val max_abs : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with p in [0, 100]; linear interpolation between
    order statistics. The input is not modified. *)
