(** Fixed domain pool for embarrassingly parallel sweeps.

    A pool owns [jobs - 1] worker domains (the caller participates as
    the last worker), fed through a shared task queue. Work items are
    claimed in chunks off an atomic cursor, so scheduling is dynamic,
    but results are always written into their input slot: [map] output
    is deterministic and byte-identical to the sequential path for pure
    job closures — exactly what the simulation sweeps in [Noise.Eval],
    [Noise.Montecarlo], [Noise.Worst_case] and [Liberty.Characterize]
    need.

    Closures must not share mutable state unless that state is itself
    domain-safe (the [Cache] and [Metrics] modules are).

    The only task a worker runs is [map]'s chunk loop, which catches
    every exception of the job closure and re-raises one in the caller,
    so a queued task cannot raise. If one ever did, its worker domain
    would end and {!shutdown}'s join would re-raise the exception in
    the owner. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] is the total parallelism, including the calling domain;
    it defaults to [Domain.recommended_domain_count ()] and is clamped
    to at least 1. [create ~jobs:1 ()] spawns no domains and runs
    everything sequentially in the caller. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must not be used
    afterwards. *)

val map : ?chunk:int -> t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] is [Array.init n f] evaluated on all pool domains.
    Results are collected in input order. [chunk] is the number of
    consecutive indices claimed at a time (default: balanced so each
    domain sees several chunks). If any [f i] raises, one such
    exception is re-raised in the caller after the sweep drains. *)

val maybe_map : ?chunk:int -> t option -> int -> (int -> 'a) -> 'a array
(** {!map} where parallelism is optional: [None] runs sequentially in
    the caller with zero overhead. *)

val with_deadline : ?ms:float -> (unit -> 'a) -> 'a
(** Run [f] under a per-task wall-clock budget (milliseconds):
    transient solves inside [f] check the budget cooperatively at every
    accepted step boundary and raise
    [Spice.Transient.Deadline_exceeded] once it expires. The token is
    domain-local, so each pool worker carries exactly the deadline of
    its own task. [None] (the default) runs unbounded with zero
    overhead. Raises [Invalid_argument] for a non-positive budget. *)
