(** The common interface of equivalent-waveform techniques.

    A technique maps a noisy input waveform to an equivalent saturated
    ramp Gamma_eff that a conventional STA tool can propagate. The
    context supplies everything the paper's techniques consume: the
    noisy waveform, the noiseless waveform of the same transition, the
    gate's noiseless response (for the sensitivity-based techniques)
    and the sampling budget P. *)

type ctx = {
  th : Waveform.Thresholds.t;
  noisy_in : Waveform.Wave.t;
  noiseless_in : Waveform.Wave.t;
  noiseless_out : Waveform.Wave.t;
  samples : int; (** P, the paper's sampling-point count (35 by default) *)
}

val make_ctx :
  ?samples:int ->
  th:Waveform.Thresholds.t ->
  noisy_in:Waveform.Wave.t ->
  noiseless_in:Waveform.Wave.t ->
  noiseless_out:Waveform.Wave.t ->
  unit -> ctx
(** Raises [Invalid_argument] if [samples < 4]. *)

exception Unsupported of string
(** A technique raises this when its preconditions fail (e.g. the
    waveform never crosses the thresholds it needs). *)

type t = {
  name : string;
  describe : string;
  applicable : ctx -> (unit, string) result;
      (** Cheap precondition probe: [Error reason] when the technique
          would reject this context (missing crossing region, polarity
          contradiction, zero sensitivity, ...). Must not run the fit
          itself — a fallback ladder consults it to skip a rung without
          paying for the fit. It may raise [Unsupported] where the
          noiseless arc itself is unsupported (a flat noiseless wave),
          which a ladder treats as [Error]. [Ok ()] is a prediction,
          not a guarantee: [run] may still raise [Unsupported] for
          conditions only the fit can detect. *)
  run : ctx -> Waveform.Ramp.t;
}

val arc : ctx -> Arc.t
(** The characterized noiseless half of the context: {!Arc.find} on its
    thresholds and noiseless pair. The noiseless accessors below read
    from it. *)

val direction : ctx -> Waveform.Wave.direction
(** Transition direction, judged from the noiseless input. *)

val noisy_critical_region : ctx -> float * float
(** [t_first, t_last]: first crossing of the "from" threshold and last
    crossing of the "to" threshold of the noisy waveform (0.1/0.9 Vdd
    per direction). Raises [Unsupported] when the waveform does not
    span the thresholds. *)

val noiseless_critical_region : ctx -> float * float

val noisy_critical_region_opt : ctx -> (float * float) option
(** Non-raising variant of {!noisy_critical_region} for applicability
    predicates. *)

val noiseless_critical_region_opt : ctx -> (float * float) option

val sample_times : float * float -> int -> float array
(** [sample_times (a, b) p] is [p] uniformly spaced times covering
    [a, b] inclusive. *)

val latest_mid_crossing : ctx -> float
(** The paper's arrival-time anchor: latest 0.5 Vdd crossing of the
    noisy waveform. Raises [Unsupported] if there is none. *)

val latest_mid_crossing_opt : ctx -> float option
(** Non-raising variant of {!latest_mid_crossing}. *)

val check_polarity : ctx -> Waveform.Ramp.t -> Waveform.Ramp.t
(** Returns the ramp unchanged, or raises [Unsupported] when the fitted
    slope direction contradicts the transition direction (a meaningless
    result for STA). *)

val trend : ?weights:float array -> ctx -> float * float -> float
(** Weighted covariance of [(t, v_noisy(t))] over the region, sampled at
    [ctx.samples] points. Its sign equals the sign of the slope a
    weighted least-squares line fit with the same weights would produce,
    so predicates can detect polarity contradictions before fitting.
    [weights] must have length [ctx.samples] when given. *)

val polarity_of_trend :
  what:string -> ctx -> float -> (unit, string) result
(** [Ok ()] when the trend sign matches the transition direction;
    [Error reason] for a flat trend or a polarity contradiction.
    [what] prefixes the reason (normally the technique name). *)

val require : bool -> string -> (unit, string) result
(** [require cond reason] is [Ok ()] or [Error reason]. *)
