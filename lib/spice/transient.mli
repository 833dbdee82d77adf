(** Nonlinear transient analysis.

    Modified nodal analysis with ideal-voltage-source branch currents,
    trapezoidal companion models for capacitors, and damped
    Newton-Raphson at every time point. The Newton tolerances
    (1e-7 V on the update, 1e-9 A on the KCL residual), the 0.6 V
    update clamp, gmin = 1e-12 S on every node and the 10-deep step
    bisection are constants of the engine.

    Two step-control modes:
    - {b Fixed} (default): a uniform grid at [dt] with source
      breakpoints inserted; a step whose Newton fails is bisected
      recursively. Grid-compatible with the historical engine (same
      time points, answers equal within the Newton tolerances); use it
      for regression references.
    - {b Adaptive}: local-truncation-error-controlled variable steps.
      Every step is solved trapezoidally and again with a
      backward-Euler companion; their discrepancy estimates the LTE,
      which the controller keeps under [lte_tol] by growing the step
      on quiescent spans (up to [dt_max]) and shrinking it through
      transitions (down to [dt_min]). Source breakpoints are landed on
      exactly; steps that carry any node voltage across one of
      [crossing_levels] are refined to [crossing_dt] so
      threshold-crossing searches keep their fixed-grid accuracy.
      Probed waveforms then live on a non-uniform grid — all
      [Waveform.Wave] consumers interpolate, so this is transparent
      downstream. *)

type adaptive = {
  lte_tol : float;       (** target local truncation error per step, V *)
  dt_min : float;        (** smallest allowed step, s *)
  dt_max : float;        (** largest allowed step, s *)
  grow_limit : float;    (** max step growth factor per accepted step *)
  safety : float;        (** controller safety factor in (0, 1] *)
  crossing_levels : float list;
      (** absolute voltages; a step crossing one is refined *)
  crossing_dt : float;   (** step cap while crossing; 0 = use [dt] *)
}

type step_control = Fixed | Adaptive of adaptive

type config = {
  dt : float;            (** nominal step, seconds *)
  tstop : float;
  tstart : float;
  max_newton : int;      (** Newton iterations per solve attempt *)
  step_control : step_control;
  max_steps : int;
      (** accepted-integration-step budget per [run]; 0 = unlimited.
          Exceeding it raises {!Step_budget_exhausted} — the safety net
          against floor-dt grinds under adaptive stepping. *)
  jac_reuse : bool;
      (** modified Newton: keep the last LU factorization across
          iterations and accepted steps while the update keeps
          contracting; refactor on stalls, step-size changes, or
          failures. The residual stays exact, so only iteration counts
          change, never converged answers beyond the Newton
          tolerances. A solve that fails under reuse is retried as
          pure Newton before being reported non-convergent. *)
  settle_levels : float list;
      (** absolute voltages. Empty (the default): run to [tstop].
          Otherwise [tstop] is a cap, and {!run} stops early once the
          circuit has settled away from every level. *)
}

val default_config : config
(** dt = 1 ps, tstop = 4 ns, tstart = 0, 60 Newton iterations, fixed
    grid, unlimited steps, Jacobian reuse on, no settle levels. *)

(** Functional setters, for building configs fluently (notably from
    [Runtime.Engine] presets). *)

val with_dt : config -> float -> config
val with_tstop : config -> float -> config
val with_step_control : config -> step_control -> config

val with_adaptive :
  ?lte_tol:float ->
  ?dt_min:float ->
  ?dt_max:float ->
  ?grow_limit:float ->
  ?safety:float ->
  ?crossing_levels:float list ->
  ?crossing_dt:float ->
  config ->
  config
(** Switch to adaptive stepping, overriding selected fields of the
    current adaptive settings, or, coming from [Fixed], of the defaults:
    lte_tol = 0.5 mV, dt_min = 10 fs, dt_max = 100 ps, grow 2x,
    safety 0.9, no crossing levels, crossing_dt = [dt]. *)

val is_adaptive : config -> bool

val with_crossing_levels_if_empty : config -> float list -> config
(** Fill in refinement levels (typically 0.1/0.5/0.9 x Vdd from the
    process thresholds) unless the caller already configured some.
    No-op on fixed-grid configs. *)

val config_fingerprint : config -> string
(** Lossless, exhaustive rendering of every solver field and constant —
    the basis of [Runtime.Cache] keys. Two configs with equal
    fingerprints produce bit-identical simulations. *)

exception No_convergence of float
(** Carries the simulation time at which Newton failed beyond the
    bisection budget (fixed grid) or below [dt_min] (adaptive). *)

exception Step_budget_exhausted of { at : float; budget : int }
(** Raised when a [run] accepts more than [config.max_steps] steps —
    the simulation time reached and the configured budget. *)

exception Deadline_exceeded of { at : float; budget_ms : float }
(** Raised by a [run] whose caller-installed wall-clock budget (see
    {!Deadline}) expired — the simulation time reached and the budget
    that was in force. *)

(** Process-global solver effort counters, maintained with atomics so
    concurrent simulations on separate domains account correctly.
    These are the raw feed for [Runtime.Metrics]. A run adds its
    [steps] and [skipped_steps] once, when its step loop exits
    (normally or by an exception), so a snapshot taken during a run
    does not yet include that run's steps. *)
module Stats : sig
  type snapshot = {
    sims : int;          (** [run] invocations *)
    steps : int;
        (** accepted integration steps, skipped ones included *)
    skipped_steps : int;
        (** fixed-grid steps committed without a Newton solve because
            they repeat a verified fixed point (see {!run}) *)
    newton_iters : int;  (** Newton iterations across all solves *)
    bisections : int;    (** step halvings after Newton failure *)
    gmin_retries : int;  (** DC solves that needed gmin stepping *)
    rejected_steps : int;
        (** adaptive steps retried (LTE, crossing, or Newton failure) *)
    lte_rejections : int;
        (** rejected steps whose LTE estimate exceeded the tolerance *)
    injected_faults : int;
        (** faults injected by an armed {!Fault} plan *)
    deadline_hits : int;
        (** solves cancelled by an expired {!Deadline} budget *)
    factorizations : int;
        (** LU factorizations actually performed *)
    jac_reuses : int;
        (** Newton iterations served by a kept factorization — the
            modified-Newton win; [newton_iters] =
            [factorizations + jac_reuses] when no solve fails *)
    batched_solves : int;
        (** cases run through {!run_batch_outcomes}, whether or not
            they completed *)
    peeled_solves : int;
        (** always 0: every batch case runs through {!run}. Kept for
            readers that report batched / (batched + peeled). *)
  }

  val snapshot : unit -> snapshot
  val diff : snapshot -> snapshot -> snapshot
  (** [diff now before] — per-stage deltas. *)
end

(** Cooperative per-solve wall-clock deadlines. [with_budget] installs
    a budget in domain-local storage for the duration of [f]; every
    {!run} on that domain then checks the clock at each accepted step
    boundary (and once before stepping) and raises {!Deadline_exceeded}
    when the budget has expired. Cancellation is cooperative: a solve
    stops at the next step boundary, never mid-factorisation, so solver
    state and stats stay consistent. Nested budgets restore the outer
    one on exit; with no budget installed the per-step check is a
    domain-local load and costs nothing measurable. *)
module Deadline : sig
  val with_budget : ms:float -> (unit -> 'a) -> 'a
  (** Raises [Invalid_argument] when [ms] is not positive and finite. *)
end

(** Deterministic, seeded fault injection for exercising recovery
    paths. Arm a plan on {!Fault.injector} (see [Faultplan]) and every
    subsequent {!run} (process-wide, all domains) rolls against it:
    [Diverge] raises {!No_convergence} before solving; [Corrupt]
    completes the solve but poisons one mid-trace sample with NaN,
    which post-solve validation must catch. Decisions depend only on
    the solve index since the plan was armed (plus the seed), so a
    fixed plan over a fixed workload reproduces exactly. Every injected
    fault also counts in [Stats.injected_faults]. *)
module Fault : sig
  type kind =
    | Diverge  (** raise [No_convergence] at [tstart]; a plan's default *)
    | Corrupt  (** return a waveform with a NaN sample; spec prefix [nan:] *)
    | Slow
        (** stall at every accepted step boundary — the solve still
            completes (slowly) unless a {!Deadline} budget cancels it;
            spec prefix [slow:] *)

  val injector : kind Faultplan.t
  (** The solver's injector: salt ["tran.fault"], one op per {!run}. *)
end

type result

val run : ?config:config -> ?ic:(string * float) list -> Circuit.t -> result
(** Simulate. The initial state is the DC operating point at [tstart]
    (with sources evaluated there); [ic] entries override individual
    node voltages as Newton starting guesses for the DC solve, which is
    how logic-level hints are passed in.

    With [config.settle_levels] non-empty, [tstop] is a cap and the
    returned waveforms may end earlier: the run stops at the first
    accepted step at which every source is quiet (see
    {!Source.quiet_from}; a recorded wave within 0.1 mV of its final
    value), every node moved less than 10 uV per ps of step in each
    step of a calm span worth 10 steps of [dt] (a step of length h
    counts for max(1, floor(h/dt)), and the span holds at least two
    accepted steps), and every node lies at least 50 mV from each
    level. The samples up to the stop are bit-identical to those of a
    run to [tstop], and no crossing of a settle level follows it
    (DESIGN §9 item 8 gives the argument).
    Waveforms hold their last sample beyond their end, so a reader
    that needs values past the stop sees the settled value.

    On the fixed grid, a step that provably repeats a verified fixed
    point is committed without its Newton solve. A solved step is a
    verified fixed point when it entered with the predictor's previous
    solution equal to the state, converged in one iteration on the
    kept factorization and committed the state it entered with; its
    capacitor currents then flip sign, a period-2 orbit. A later step
    repeats it when no factorization or linear restamp intervenes, the
    capacitor currents, every source value and each capacitor's
    companion term at the new step size equal the verified step's bit
    for bit. The skip commits exactly what the solve would, so every
    sample is bit-identical; {!Stats} counts such steps in [steps] and
    [skipped_steps], not in [newton_iters]. Before its stimulus moves, a
    replay of a ramp skips every step (DESIGN §9 item 9).

    A Newton iteration whose residual or update is not finite fails, so
    a stimulus that evaluates to NaN ends in {!No_convergence} after
    bisection, not in NaN samples. *)

val run_batch_outcomes :
  ?config:config ->
  ?ics:(string * float) list array ->
  Circuit.t array ->
  (result, exn) Stdlib.result array
(** Batch-first solve: {!run} every circuit under one shared
    [config], in index order, and return each case's outcome in place.
    Results are exactly the sequential loop's — byte-identical traces,
    and an armed {!Fault} plan rolls once per case in index order.
    Per-case failures (non-convergence, deadline cancellation,
    step-budget exhaustion, compile rejection) are returned rather
    than raised, so callers with per-case retry ladders
    ([Runtime.Resilience]) can recover individually; an invalid
    [config] raises [Invalid_argument] before any case runs.

    [ics] optionally gives per-case initial-condition hints (same
    meaning as {!run}'s [ic]); its length must equal the batch's.

    A caller-installed {!Deadline} budget is sliced per case: each case
    may spend the budget that was left when the batch started, so one
    slow case is cancelled alone and its siblings complete. *)

val probe : result -> string -> Waveform.Wave.t
(** Waveform at the named node. Raises [Not_found] for unknown names.
    Under adaptive stepping the sample grid is non-uniform. *)
