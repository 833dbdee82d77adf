(** Saturated linear ramps — the equivalent waveform Gamma_eff.

    Every technique in the paper outputs a line v(t) = a*t + b; applied
    to a gate it is clipped at the supply rails. A ramp therefore
    carries the line coefficients plus the supply it saturates at. *)

type t = private {
  slope : float;     (** a, in V/s; negative for falling edges *)
  intercept : float; (** b, in V *)
  vdd : float;
}

val make : slope:float -> intercept:float -> vdd:float -> t
(** Raises [Invalid_argument] when [slope = 0] or [vdd <= 0]. *)

val of_line : Numerics.Lsq.line -> vdd:float -> t

val of_arrival_slew :
  arrival:float -> slew:float -> dir:Wave.direction -> Thresholds.t -> t
(** Build the ramp that crosses the mid threshold at [arrival] with the
    given low-to-high transition time [slew] (must be positive). This is
    the classical (arrival, slew) -> waveform expansion used by STA. *)

val direction : t -> Wave.direction

val value_at : t -> float -> float
(** The clipped value min(max(a*t + b, 0), vdd). *)

val value_into : t -> float array -> int -> unit
(** [value_into r buf i] replaces the time [buf.(i)] with [value_at r]
    of it, boxing no float: the transient engine's evaluation. *)

val arrival : t -> Thresholds.t -> float
(** Mid-threshold crossing time. *)

val slew : t -> Thresholds.t -> float
(** Low/high threshold transition time (always positive). *)

val t_begin : t -> float
(** Time at which the clipped ramp leaves its initial rail. *)

val t_settle : t -> float
(** Time at which the clipped ramp reaches its final rail. *)

val to_waveform : ?pad:float -> ?n:int -> t -> Wave.t
(** Sample the clipped ramp, padding [pad] (default: one transition
    time) of settled rail on each side, with [n] (default 201)
    samples. *)
