(** Solver supervision: bounded retry/fallback ladder plus post-solve
    waveform validation.

    A {!policy} describes how to react when a supervised solve fails
    (raises a recoverable {!Failure.t}) or produces an invalid
    waveform: re-run it through an escalating sequence of solver
    configurations — the {e ladder} — until one succeeds, validates,
    or the attempt budget is spent. The standard ladder is

    + the caller's own config (attempt 1);
    + ["tighten"] — same mode, harder: LTE tolerance / 4 and dt_max / 2
      under adaptive stepping, dt / 2 on a fixed grid;
    + ["reference"] — the fixed historical grid at the base dt;
    + ["reference-dt/2"] — fixed grid at half the base dt.

    Rungs never touch the Newton iteration budget: a config that
    cannot converge at all (e.g. [max_newton = 0]) stays failed all
    the way down, ending in a typed [Error].

    Every rung produces a distinct {!Spice.Transient.config}, and all
    cache keys digest the full config fingerprint, so fallback results
    never alias the primary attempt's cache entries.

    Counters live in {!Stats}, process-global and atomic, mirroring
    [Spice.Transient.Stats]. *)

type rung = {
  rung_name : string;
  transform : Spice.Transient.config -> Spice.Transient.config;
      (** applied to the {e base} config, not the previous rung's *)
}

type policy = {
  name : string;
  max_attempts : int;  (** total attempts including the first; >= 1 *)
  rungs : rung list;
  check_finite : bool;  (** reject waveforms with NaN/inf samples *)
  rail_tol : float option;
      (** allowed excursion outside the rails as a fraction of the
          rail-to-rail swing; [None] disables the rail check *)
}

val standard : policy
(** The ladder above; 4 attempts, finite check on, rail tolerance
    0.5 x swing (generous enough that legitimate crosstalk over- and
    undershoot never rejects). *)

val of_name : string -> policy
(** ["standard"], or ["none"]: a single attempt with no validation, the
    pre-supervision behavior. Backs the CLI [--fallback] flag. Raises
    [Invalid_argument] otherwise. *)

val with_max_attempts : policy -> int -> policy
(** Clamp to at least 1. Backs the CLI [--retries] flag. *)

val fingerprint : policy -> string
(** Stable rendering of the policy (name, budget, rung names,
    validation toggles) for checkpoint fingerprints. *)

module Stats : sig
  type snapshot = {
    solves : int;      (** supervised solves ({!run} calls) *)
    attempts : int;    (** individual attempts across all ladders *)
    retries : int;     (** attempts beyond the first *)
    recoveries : int;  (** solves rescued by a later rung *)
    failures : int;    (** solves that exhausted the ladder *)
    rejected_waveforms : int;
        (** results discarded by post-solve validation *)
  }

  val snapshot : unit -> snapshot

  val diff : snapshot -> snapshot -> snapshot
  (** [diff now before] — per-stage deltas. *)

  val pp : Format.formatter -> snapshot -> unit
end

val validate_waves :
  policy ->
  ?rails:float * float ->
  ?crossing:float ->
  (string * Waveform.Wave.t) list ->
  Failure.t option
(** Check labeled waveforms against the policy: finite samples (when
    [check_finite]), every sample within [rails] widened by
    [rail_tol] x swing, and — when [crossing] is given — every
    waveform crossing that level at least once. First violation
    wins. *)

val run :
  ?validate:('a -> Failure.t option) ->
  ?on_reject:(Spice.Transient.config -> unit) ->
  policy ->
  config:Spice.Transient.config ->
  attempt:(Spice.Transient.config -> 'a) ->
  ('a, Failure.t) result
(** Supervise one solve. [attempt] is called with the base [config],
    then with each rung's transform of it, until a result passes
    [validate] (default: accept everything) or the budget is spent.

    An attempt that raises a {e recoverable} {!Failure.t} (directly or
    via [Spice.Transient] exceptions, see {!Failure.of_exn}) moves the
    ladder to the next rung; an unrecoverable one aborts immediately
    with [Error]; any other exception is a bug and propagates. When
    [validate] rejects a result, [on_reject] is called with that
    attempt's config — the hook call sites use to purge the cache
    entry holding the invalid waveform — before the ladder advances.

    Returns [Ok result] or [Error last_failure] once the ladder is
    exhausted. *)
