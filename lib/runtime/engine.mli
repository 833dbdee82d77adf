(** Unified evaluation-engine configuration.

    An engine bundles everything a simulation harness needs — the
    transient solver configuration, an optional domain {!Pool}, an
    optional result {!Cache}, an optional {!Metrics} sink, and a batch
    width — behind one value. Harness entry points
    ([Noise.Eval.run_table], [Noise.Montecarlo.run],
    [Noise.Worst_case.search], [Liberty.Characterize.run],
    [Noise.Injection.*], [Server.Batcher]) take a single [?engine] and
    fan work out exclusively through {!submit_batch}; the
    [?pool]/[?cache] optional-argument aliases of the PR-1 API are
    gone.

    Named presets:
    - ["reference"] — fixed-step grid, bit-exact with the historical
      engine; the regression baseline. Its solver config carries
      [Spice.Transient.default_config]'s 1 ps step, but the Noise
      harnesses set the step per solve: 2 ps ([Scenario.dt]) for full
      chains and 1 ps for receiver replays
      ([Injection.receiver_response]).
    - ["accurate"] — adaptive stepping, 0.1 mV LTE tolerance, steps up
      to 50 ps.
    - ["fast"] — adaptive stepping, 1 mV LTE tolerance, steps up to
      200 ps; several-fold fewer steps on the Table-1 sweeps with
      sub-0.01 ps gate-delay drift. *)

type t

val make :
  ?name:string ->
  ?solver:Spice.Transient.config ->
  ?pool:Pool.t ->
  ?cache:Cache.t ->
  ?metrics:Metrics.t ->
  ?resilience:Resilience.policy ->
  ?deadline_ms:float ->
  ?guard:Guard.t ->
  ?batch:int ->
  unit ->
  t
(** Defaults: name "custom", {!Spice.Transient.default_config}, no
    pool, no cache, no metrics, {!Resilience.standard} supervision, no
    per-solve deadline, no differential guard, batch width 16. Raises
    [Invalid_argument] when [deadline_ms] is not positive or [batch]
    is not >= 1. *)

val reference : t
val accurate : t
val fast : t

val of_name : string -> t
(** Look up a preset by name ("reference", "accurate" or "fast");
    raises [Invalid_argument] otherwise. This backs the CLI [--engine]
    flag. *)

val name : t -> string
val solver : t -> Spice.Transient.config
val pool : t -> Pool.t option
val cache : t -> Cache.t option
val metrics : t -> Metrics.t option

val resilience : t -> Resilience.policy
(** Supervision policy the harnesses run every solve under; presets
    carry {!Resilience.standard}. *)

val deadline_ms : t -> float option
(** Per-solve wall-clock budget the harnesses install around every
    solve attempt (via {!Pool.with_deadline}); [None] = unbounded. *)

val guard : t -> Guard.t option
(** Differential accuracy guard the sweep harnesses consult; [None] =
    no cross-validation. *)

val batch : t -> int
(** Batch width: the group size of [Noise.Eval.run_table]'s pre-solve
    pass ([Noise.Injection.prewarm_noisy] over
    [Spice.Transient.run_batch_outcomes]), which 1 skips, and the
    default pool chunk of {!submit_batch}. Answers never depend on
    it. *)

val with_pool : t -> Pool.t -> t
val with_cache : t -> Cache.t -> t
val with_metrics : t -> Metrics.t -> t
val with_resilience : t -> Resilience.policy -> t

val with_deadline : t -> float -> t
(** Raises [Invalid_argument] when the budget (ms) is not positive. *)

val with_guard : t -> Guard.t -> t

val with_batch : t -> int -> t
(** Raises [Invalid_argument] when the width is not >= 1. *)

val map_solver : t -> (Spice.Transient.config -> Spice.Transient.config) -> t
(** Apply a solver-config transform, e.g.
    [map_solver e (fun c -> Spice.Transient.with_adaptive ~lte_tol c)]. *)

val resolve : t option -> t
(** Normalize a harness entry point's [?engine] argument: [None] means
    the {!reference} engine. *)

val submit_batch : ?chunk:int -> t -> int -> (int -> 'a) -> 'a array
(** [submit_batch engine n f] evaluates [f 0 .. f (n-1)] on the
    engine's pool (inline when it has none) and returns the results in
    input order — the single fan-out point every harness routes
    through. [chunk] overrides how many consecutive indices a domain
    claims at a time; the default is the engine's {!batch} width, so a
    worker that batches its slice sees whole sub-batches. *)

val is_adaptive : t -> bool
