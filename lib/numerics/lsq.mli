(** Weighted linear least squares and a small Gauss-Newton driver.

    The equivalent-waveform techniques all reduce to fitting a line
    Gamma(t) = a*t + b to voltage samples under various weightings
    (paper Eq. 2) or to minimizing a nonlinear residual (paper Eq. 3);
    these are the shared fitting kernels. *)

type line = { slope : float; intercept : float }
(** The fitted line a*t + b as [slope]*t + [intercept]. *)

val fit_line : ?weights:float array -> float array -> float array -> line
(** [fit_line ?weights ts vs] minimizes
    sum_k w_k * (v_k - (a*t_k + b))^2 (w_k = 1 when [weights] is
    omitted). Raises [Invalid_argument] on size mismatch or fewer than
    two effective points, [Failure "Lsq.fit_line: degenerate"] when the
    weighted design matrix is singular (e.g. all weight on one t). *)

type normal = {
  a00 : float;
  a01 : float;  (** also the (1, 0) entry: J^T J is symmetric *)
  a11 : float;
  g0 : float;
  g1 : float;
}
(** The Gauss-Newton normal equations of a two-parameter fit at one
    iterate: the entries of J^T J and the gradient -J^T r. *)

val gauss_newton :
  ?max_iter:int ->
  ?tol:float ->
  cost:(float -> float -> float) ->
  normal:(float -> float -> normal) ->
  float * float ->
  float * float
(** [gauss_newton ~cost ~normal (a0, b0)] minimizes a sum of squared
    residuals over two parameters starting from [(a0, b0)]. [cost a b]
    is the sum of squared residuals at [(a, b)] and [normal a b] the
    normal equations there. Each iteration solves the normal equations
    with 1e-12 * (1 + |a_pp|) added to each diagonal entry, then halves
    the step up to 20 times until the cost falls below the best seen.
    Stops when no step lowers the cost, when the step's max-norm falls
    below [tol] (default 1e-12), when the damped system is singular, or
    after [max_iter] (default 25) iterations. Returns the best iterate
    seen. *)
