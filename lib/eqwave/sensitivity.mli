(** Output-to-input sensitivity rho (paper Eq. 1).

    rho(t) = (dv_out/dt) / (dv_in/dt) for the *noiseless* transition,
    defined on the noiseless critical region and zero outside. Because
    the noiseless input is monotone there, rho can also be indexed by
    input *voltage* — which is exactly the remapping SGDP-Step 2 uses
    to carry the sensitivity onto the noisy waveform.

    rho is a per-arc quantity: it depends only on the thresholds and the
    noiseless input/output pair, so {!compute} and {!overlap_shift}
    read them from that pair's {!Arc.t}, which characterizes them once
    per arc and domain. *)

type t = Arc.sensitivity = {
  region : float * float;   (** noiseless critical region *)
  ts : float array;         (** sample times inside the region *)
  vin : float array;        (** noiseless input voltage at [ts] *)
  rho : float array;        (** sensitivity at [ts] *)
  drho_dv : float array;    (** d rho / d v_in at [ts] *)
  output_shift : float;     (** the delta applied to the output, >= 0 *)
  v_grid : float array;     (** ascending input-voltage grid (internal
                                cache for voltage-indexed lookups) *)
  rho_by_v : float array;   (** rho on [v_grid] *)
  drho_by_v : float array;  (** drho/dv on [v_grid] *)
}

val compute : ?output_shift:float -> ?points:int -> Technique.ctx -> t
(** The sensitivity sampled on [points] (default 201) uniform times over
    the noiseless critical region. [output_shift] shifts the noiseless
    output *earlier* by that amount before differentiating — the
    alignment step SGDP adds for non-overlapping transitions. Sampled on
    the first call for an arc and key, then returned from the arc's memo
    ({!Arc.sensitivity}) bit for bit: the tables are shared between
    callers and must not be mutated. *)

val rho_at_voltage : t -> float -> float
(** Sensitivity at a given input voltage level; 0 outside the critical
    voltage range (the paper's "filter" behaviour). *)

val drho_dv_at_voltage : t -> float -> float

val rho_at_time : t -> float -> float
(** Sensitivity at an absolute time; 0 outside the critical region.
    This is WLS5's time-indexed weight. *)

val overlap_shift : Technique.ctx -> float
(** The delta of SGDP's pre-processing step: 0 when the noiseless input
    and output critical regions overlap in time, otherwise the gap
    between their mid-threshold crossings. Memoized per arc: a shift
    that raised {!Technique.Unsupported} raises it again, with the same
    reason, on every call. *)

val peak : t -> float
(** max |rho|; a diagnostic (Figure 2a plots 0.2 x rho). *)
