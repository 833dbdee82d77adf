(** Independent source stimuli. *)

type t

val dc : float -> t

val pwl : (float * float) list -> t
(** Piecewise-linear (time, value) points; must be sorted by strictly
    increasing time (checked). Held constant outside the span. *)

val ramp : t0:float -> v0:float -> v1:float -> trans:float -> t
(** Linear transition from [v0] to [v1] starting at [t0], lasting
    [trans] (> 0). The usual STA stimulus. *)

val of_wave : Waveform.Wave.t -> t
(** Drive with a recorded waveform (e.g. a noisy waveform re-applied to
    a receiver, or a technique's Gamma_eff). *)

val of_ramp : Waveform.Ramp.t -> t
(** Drive with a saturated ramp, evaluated analytically. *)

val value_into : t -> float array -> int -> unit
(** [value_into s buf i] replaces the time [buf.(i)] with the stimulus
    value at that time. A Dc, Pwl or Ramp source allocates nothing, so
    the transient engine's per-step evaluation boxes no float. *)

val fingerprint : t -> string
(** Content digest for simulation caching: two sources with equal
    fingerprints produce bit-identical stimuli. *)

val quiet_from : tol:float -> t -> float
(** The time from which the stimulus holds still: [neg_infinity] for
    [dc], the last point of [pwl] and [ramp], the settle time of
    [of_ramp]. A recorded wave counts as still from the first sample
    after which every sample lies within [tol] of its final value
    ([neg_infinity] when all do). Computed from the stimulus itself,
    so it is exact, not an estimate. *)

val breakpoints : t -> float list
(** Times at which the source has slope discontinuities; the transient
    engine aligns steps to these for accuracy. *)
