(** 1-D and 2-D interpolation over sorted grids. *)

val linear : float array -> float array -> float -> float
(** [linear xs ys x] evaluates the piecewise-linear interpolant through
    (xs, ys) at [x], extrapolating linearly from the end intervals.
    [xs] must be strictly increasing with at least two entries; only
    the length is checked here (this is the per-sample hot path —
    grids are validated where they are built). *)

val bilinear :
  float array -> float array -> float array array -> float -> float -> float
(** [bilinear xs ys z x y] interpolates the surface [z.(i).(j)] defined
    on the grid [xs] x [ys]; clamps outside the grid. [z] must be
    [length xs] rows of [length ys]. *)

val derivative : float array -> float array -> float array
(** [derivative xs ys] is the centered finite-difference derivative
    dy/dx on the same grid (one-sided at the ends). *)
