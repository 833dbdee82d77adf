(** Graceful-degradation fallback ladder over Gamma_eff techniques.

    A single technique rejecting a pathological noisy waveform
    ([Technique.Unsupported]) should downgrade the mapping, not kill the
    data point. A ladder tries techniques in order — by default the
    paper's accuracy ordering SGDP -> WLS5 -> LSF3 -> E4 -> P1 — records
    which rung produced the ramp plus every skip reason, and scores the
    accepted ramp by its RMS deviation from the sampled noisy waveform
    so callers can see what the degradation cost them. *)

type skip = { technique : string; reason : string }

type outcome = {
  ramp : Waveform.Ramp.t;  (** the accepted equivalent ramp *)
  technique : string;  (** name of the technique that produced it *)
  rung : int;  (** 0-based index of that technique in the ladder *)
  score_v : float;
      (** RMS deviation (volts) of the ramp from the sampled noisy
          waveform over the noisy critical region *)
  skipped : skip list;  (** rungs tried and skipped before acceptance *)
}

type t

val make : ?name:string -> Technique.t list -> t
(** Raises [Invalid_argument] on an empty list or duplicate technique
    names. *)

val default : t
(** SGDP -> WLS5 -> LSF3 -> E4 -> P1, most to least accurate. *)

val of_names : string list -> t
(** Build from registry names (case-insensitive). Raises
    [Invalid_argument] on unknown names or duplicates. *)

val prepend : Technique.t -> t -> t
(** [prepend tech t] puts [tech] at rung 0, dropping any later
    occurrence of the same technique. *)

val names : t -> string list
val length : t -> int

val fingerprint : t -> string
(** Stable digest input covering the rung order, for checkpoint/cache
    keys — two ladders with the same technique sequence fingerprint
    identically. *)

val run : t -> Technique.ctx -> (outcome, skip list) result
(** Try each rung in order: consult [applicable] first (an [Error],
    or an [Unsupported] it raises, records a skip without paying for
    the fit), then run the fit,
    converting [Technique.Unsupported], [Stdlib.Failure] and non-finite
    ramps into skips. Returns [Error skips] when every rung was
    exhausted. Never raises for waveform-shaped reasons — a surviving
    exception indicates a bug in a technique, not a bad waveform. *)
