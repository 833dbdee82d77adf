(** Dense real matrices and the one linear solver.

    Matrices are stored row-major in a flat [float array]. Sizes are small
    (tens of unknowns, as produced by circuit MNA stamping), so one dense
    LU with partial pivoting serves every caller. Its factorization skips
    the columns where the pivot row is zero and records where L and U are
    non-zero, and its triangular solves visit only those entries. On
    sparse MNA systems that saves most of the elimination and
    substitution work without changing a non-zero result. *)

type t
(** A mutable [rows] x [cols] dense matrix of floats. *)

val create : int -> int -> t
(** [create rows cols] is a zero-filled matrix. Raises
    [Invalid_argument] if a dimension is not positive. *)

val of_arrays : float array array -> t
(** [of_arrays a] copies a rectangular array-of-rows into a matrix.
    Raises [Invalid_argument] on ragged input or empty input. *)

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] adds [x] to element (i, j); the basic stamping
    operation used by MNA assembly. *)

val slot : t -> int -> int -> float array * int
(** Backing array and flat offset of element (i, j). Lets callers with
    a static sparsity pattern compile their stamp positions once and
    apply them with plain array writes in hot loops; writing through
    the pair is equivalent to [set]/[add_to] at that position. *)

val fill : t -> float -> unit

val mul_vec : t -> float array -> float array
(** [mul_vec m v] is the matrix-vector product [m * v]. *)

exception Singular of int
(** Raised (with the offending pivot column) when factorization meets a
    pivot smaller than the singularity threshold. *)

val blit : t -> t -> unit
(** [blit src dst] copies [src]'s contents into [dst]. Raises
    [Invalid_argument] on shape mismatch. The baseline-restore
    operation of the solver hot path: restamping only the nonlinear
    devices on top of a pre-stamped linear part. *)

type fact
(** A preallocated, reusable LU workspace (PA = LU). Factoring into it
    allocates nothing and solving overwrites the right-hand side in
    place — the allocation-free inner loop of [Spice.Transient]. *)

val fact_create : int -> fact
(** [fact_create n] allocates a workspace for n x n systems. Raises
    [Invalid_argument] when [n] is not positive. *)

val factor_into : t -> fact -> unit
(** [factor_into a f] factors the square matrix [a] into [f],
    overwriting any previous factorization. [a] is not modified.
    Raises {!Singular} on a vanishing pivot and [Invalid_argument] on
    size mismatch. Allocation-free. *)

val solve_into : fact -> float array -> unit
(** [solve_into f b] solves [A x = b] for the factored [A],
    overwriting [b] with [x]. Allocation-free. It visits only the
    entries of L and U that the last {!factor_into} into [f] recorded as
    non-zero: a skipped term would subtract 0·b(j), so for a finite [b]
    every non-zero of [x] is the dense substitution's, and only the sign
    of a zero may differ. After a {!Singular} raise, [f] holds no usable
    factorization until the next successful [factor_into]. *)
