(** Bordered-banded ("arrowhead") linear systems.

    An MNA matrix whose graph is narrow-banded {e except} for a few
    hub rows (the shared supply node and its source branch) is
    partitioned as

    {v
      [ B  F ] [x1]   [r1]
      [ G  D ] [x2] = [r2]
    v}

    with a banded core [B] and a dense border of [b] rows/columns.
    Factoring runs one banded LU on [B], solves the [b] columns of
    [Z = B^-1 F], and densely factors the Schur complement
    [S = D - G Z]; a solve is then two banded substitutions plus a
    [b x b] dense solve — O(n) per solve for fixed bandwidths instead
    of O(n^2). A border of 0 degenerates to a plain banded solver.

    Row/column indices are the {e permuted} positions produced by
    {!Ordering.plan}: core rows first, border rows last. *)

type t
(** A mutable bordered-banded matrix. *)

val create : nb:int -> kl:int -> ku:int -> border:int -> t
(** [create ~nb ~kl ~ku ~border]: [nb x nb] banded core with the given
    bandwidths plus [border] dense rows/columns. Raises
    [Invalid_argument] on a non-positive core size or negative
    border. *)

val add_to : t -> int -> int -> float -> unit
(** Stamp into the partition the (permuted) position falls in. Core
    positions outside the band raise [Invalid_argument] — the planner
    guarantees stamps stay inside. *)

val slot : t -> int -> int -> float array * int
(** Backing array and flat offset of an entry in whichever quadrant it
    lives (core entries must be in band); see [Matrix.slot]. *)

val fill : t -> float -> unit
val blit : t -> t -> unit
val to_dense : t -> Matrix.t

type fact
(** Preallocated factorization workspace: band LU of the core, the
    [Z = B^-1 F] block, a snapshot of [G], and the dense-factored
    Schur complement. Reusable across refactors without allocation. *)

val fact_create : t -> fact

val factor_into : t -> fact -> unit
(** Factor [t] into the workspace; [t] is untouched and may be
    restamped afterwards without invalidating the factorization's
    solves. Raises {!Matrix.Singular} (from the core or the Schur
    complement) on numerical deficiency. Allocation-free. *)

val solve_into : fact -> float array -> unit
(** Overwrite the length-[dim] right-hand side with the solution.
    Allocation-free. *)
