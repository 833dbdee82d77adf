(** Differential accuracy guard.

    Cross-validates a deterministic, seeded sample (roughly 1 in
    [every] cases) of fast-engine results against the reference solver
    preset, counting agreements and disagreements beyond a delay
    tolerance. Sweeps consult {!selects} per case index, re-evaluate
    the selected cases under the reference engine, and feed the delay
    delta into {!record}; the process-global {!Stats} then make silent
    accuracy drift an observable, CI-checkable signal (surfaced through
    [Runtime.Metrics] and the bench [--json] [guard] section). *)

type t

val make : ?every:int -> ?seed:int -> ?tol_s:float -> unit -> t
(** Defaults: check every 8th case (statistically), seed 0, tolerance
    1 ps. Raises [Invalid_argument] when [every < 1] or [tol_s] is not
    finite. *)

val fingerprint : t -> string
(** Stable digest input for checkpoint fingerprints — guarded sweeps
    replay extra reference solves, which shifts fault-injection solve
    indices, so resumed journals must not mix guard settings. *)

val selects : t -> int -> bool
(** Whether case index [i] is in the guarded sample. Deterministic in
    [(seed, i)] — independent of pool scheduling and resume points. *)

val record : t -> delta_s:float -> bool
(** Record one fast-vs-reference delay delta (seconds); returns whether
    it agrees within [tol_s] and updates {!Stats} accordingly. *)

val record_error : unit -> unit
(** Count a guarded case whose reference re-evaluation itself failed —
    neither agreement nor disagreement. *)

(** Process-global counters, same discipline as
    [Spice.Transient.Stats]: atomics, snapshot/diff, so pool
    domains account correctly. [max_delta_s] is a high-water mark
    ([diff] keeps the current mark rather than subtracting). *)
module Stats : sig
  type snapshot = {
    checked : int;
    agreements : int;
    disagreements : int;
    errors : int;
    max_delta_s : float;
  }

  val snapshot : unit -> snapshot
  val diff : snapshot -> snapshot -> snapshot
end
