(** Banded real matrices with in-place pivoted LU.

    Storage is LAPACK general-band layout: an [n x n] matrix with [kl]
    subdiagonals and [ku] superdiagonals keeps each column contiguous
    with [kl] extra fill rows, so partial pivoting during
    factorization stays inside the allocation. Factor cost is
    O(n * kl * (kl + ku)) and solve cost O(n * (kl + ku)) — for the
    narrow-banded MNA systems produced by RC-tree + gate circuits this
    replaces the dense O(n^3)/O(n^2) kernel.

    Out-of-band elements read as zero; writing one raises. *)

type t
(** A mutable banded matrix. *)

val create : n:int -> kl:int -> ku:int -> t
(** Zero matrix with the given size and bandwidths (clamped to
    [n - 1]). Raises [Invalid_argument] on a non-positive size or a
    negative bandwidth. *)

val get : t -> int -> int -> float
(** Zero outside the band; raises [Invalid_argument] out of range. *)

val add_to : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] outside the band. *)

val slot : t -> int -> int -> float array * int
(** Backing array and flat offset of an in-band entry (raises
    [Invalid_argument] otherwise); see [Matrix.slot]. *)

val fill : t -> float -> unit
val blit : t -> t -> unit
(** [blit src dst]; raises [Invalid_argument] on shape mismatch. *)

val to_dense : t -> Matrix.t

type fact
(** A preallocated band-LU workspace (factored data + pivot
    exchanges). Create once, refactor and solve in place forever. *)

val fact_create : t -> fact
(** Workspace shaped for [t] (and any matrix with equal n/kl/ku). *)

val factor_into : t -> fact -> unit
(** Factor [t] into the workspace; [t] is untouched. Allocation-free.
    Raises {!Matrix.Singular} on a vanishing pivot (the band-confined
    pivot search can also report structurally fine but numerically
    deficient systems) and [Invalid_argument] on shape mismatch. *)

val solve_into : fact -> ?pos:int -> float array -> unit
(** [solve_into f b] overwrites [b] (the [n] cells starting at [pos],
    default 0) with the solution of [A x = b]. Allocation-free; the
    [pos] offset solves one column of a multi-RHS block in place. *)

val solve : t -> float array -> float array
(** One-shot convenience: factor and solve, leaving inputs intact. *)
