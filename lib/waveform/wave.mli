(** Sampled voltage waveforms.

    A waveform is a piecewise-linear curve through samples at strictly
    increasing times. Between samples the curve is linearly
    interpolated; outside its span it is held at the end values (a
    settled signal). *)

type t

type direction = Rising | Falling

val pp_direction : Format.formatter -> direction -> unit

val create : float array -> float array -> t
(** [create ts vs] validates that [ts] is strictly increasing, has the
    same length as [vs] (>= 2), and copies both. *)

val of_fun : t0:float -> t1:float -> n:int -> (float -> float) -> t
(** Sample a function on [n] uniform points spanning [t0, t1]. *)

val times : t -> float array
(** A copy of the sample times. *)

val values : t -> float array
val t_start : t -> float
val t_end : t -> float

val value_at : t -> float -> float
(** Linear interpolation; clamps to end values outside the span. *)

val shift : t -> float -> t
(** [shift w dt] delays the waveform by [dt] (moves it right for
    positive [dt]). *)

val resample : t -> float array -> t
(** Resample onto a new (strictly increasing) grid. *)

val first_crossing : t -> float -> float option
(** [first_crossing w level] is the earliest time the curve reaches
    [level], by linear interpolation. *)

val last_crossing : t -> float -> float option

val crossings : t -> float -> float list
(** All crossing times, earliest first. A sample exactly at [level]
    counts once. *)

val direction : t -> direction
(** Overall transition direction, judged from the end values. Raises
    [Invalid_argument "Wave.direction: no transition"] when the curve is
    flat. *)

val arrival : t -> Thresholds.t -> float option
(** Latest mid-threshold crossing — the paper's arrival-time convention
    for noisy waveforms. *)

val slew : t -> Thresholds.t -> float option
(** Transition time between the low and high thresholds for the overall
    direction: time from the last low-threshold crossing before the
    final settling for rising edges, measured as
    [t(high, last) - t(low, first)]. Returns [None] when the curve never
    spans the thresholds. *)

val derivative : t -> t
(** Centered finite-difference dV/dt on the same grid. *)

val to_csv : t -> string
(** Two-column "t,v" CSV text with a header, times in seconds. *)
