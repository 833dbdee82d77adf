(** Branch-and-bound search over the aggressor alignment window.

    The exhaustive alignment sweep solves one transient per grid
    point. Most alignments are not worth solving: [search] solves a
    coarse sub-grid (solved through the batch API),
    upper-bounds every unexplored bracket — from a superposition
    estimate on the linear coupled interconnect
    ({!Interconnect.Noise_bound}) capping the total delay push-out,
    and from a Piyavskii-style Lipschitz rate estimated out of the
    secant slopes between solved neighbors — and bisects only
    brackets whose bound still exceeds the incumbent by more than the
    coverage slack [prune_tol_ps]. The returned worst case is within
    [prune_tol_ps] of the exhaustive sweep's whenever the rate
    estimate holds (enforced empirically by the bench gate and the
    property tests), and every alignment actually solved is
    byte-identical to the exhaustive solve there. With
    [prune_tol_ps = 0] the search degenerates to the exhaustive
    sweep, byte-for-byte. *)

type config = {
  prune_tol_ps : float;
      (** coverage slack in ps: a bracket is pruned once its upper
          bound exceeds the incumbent by no more than this, so the
          found worst case trails the true one by at most this much.
          0 disables pruning entirely (exhaustive sweep). *)
  coarse : int;  (** coarse-phase sub-grid size (endpoints included) *)
  safety : float;
      (** multiplier on every estimated rate (aggressor slew rate,
          push cap, observed secant slopes, activity window) *)
}

val default : config
(** [{ prune_tol_ps = 0.0; coarse = 9; safety = 1.5 }] — exhaustive
    unless a tolerance is asked for. *)

type stats = { total : int; solved : int; pruned : int; rounds : int }

type result = {
  best_index : int;  (** grid index of the worst-case alignment *)
  best_tau : float;
  best_delay : float;
  delays : float option array;
      (** per-grid-point mid-threshold delay; [None] = pruned *)
  stats : stats;
}

val mid_delay : Scenario.t -> Injection.run -> float
(** Receiver-output minus receiver-input last mid-threshold crossing.
    Raises {!Runtime.Failure.Error} [Missing_crossing] if either probe
    never crosses. *)

val delay_at :
  ?engine:Runtime.Engine.t -> Scenario.t -> noiseless:Injection.run ->
  tau:float -> float
(** Solve (or replay from cache) the noisy case at [tau] and measure
    {!mid_delay}. *)

val overlap_interval :
  ?config:config -> Scenario.t -> noiseless:Injection.run -> float * float
(** [(lo, hi)]: aggressor alignments outside this interval cannot
    inject noise during the victim's critical window, so their delay
    is the nominal one. *)

val search :
  ?config:config -> ?engine:Runtime.Engine.t -> Scenario.t ->
  noiseless:Injection.run -> result
(** Run the search over [Scenario.taus scenario]. Solved rounds are
    warmed through {!Injection.prewarm_noisy} and fanned out with
    {!Runtime.Engine.submit_batch}; ties break toward the lowest grid
    index (first maximum wins), matching the exhaustive sweep. When the
    engine carries a metrics registry, adds to the
    [noise.alignments_solved] / [noise.alignments_pruned] counters. *)

val pp_stats : Format.formatter -> stats -> unit
