(** Scalar root finding. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [brent f a b] finds a root of [f] in [a, b] by Brent's method:
    inverse quadratic interpolation with bisection fallback. Requires
    [f a] and [f b] to have opposite signs (raises [Invalid_argument]
    otherwise). Default [tol] 1e-15 on the interval width. *)

val find_bracket :
  (float -> float) -> lo:float -> hi:float -> steps:int -> (float * float) option
(** [find_bracket f ~lo ~hi ~steps] scans [steps] uniform subintervals
    of [lo, hi] and returns the first subinterval on which [f] changes
    sign. *)
