(** Worst-case aggressor alignment search.

    Noise-aware STA needs the alignment that maximizes the victim's
    delay, not an average over alignments. A coarse scan over the
    window brackets the worst case, then golden-section refinement
    polishes it — each probe is one full-chain transient simulation,
    so the budget matters. *)

type result = {
  tau : float;          (** worst aggressor start time found *)
  delay : float;        (** reference gate delay at [tau] *)
  nominal_delay : float;(** noiseless gate delay, for the push-out *)
  probes : int;         (** simulations spent *)
  pruned : int;         (** coarse-grid points bounded away unsolved *)
  gamma : (Eqwave.Ladder.outcome, Runtime.Failure.t) Stdlib.result;
      (** equivalent-ramp mapping of the worst-case waveform through
          the degradation ladder — the Gamma_eff a downstream STA
          would propagate, with its rung and deviation score *)
}

val delay_at :
  ?engine:Runtime.Engine.t ->
  Scenario.t -> noiseless:Injection.run -> tau:float -> float
(** Reference gate delay (latest 0.5 Vdd crossings, input to output) of
    one injection case. Raises [Failure] when a crossing is missing. *)

val search :
  ?coarse:int -> ?refine:int -> ?prune_tol_ps:float ->
  ?samples:int -> ?ladder:Eqwave.Ladder.t ->
  ?engine:Runtime.Engine.t ->
  Scenario.t -> result
(** [search scenario] scans [coarse] (default 24) alignments across the
    scenario window through {!Alignment.search} — with [prune_tol_ps]
    (default 0, exhaustive) positive, provably non-critical brackets
    of the coarse grid are bounded away unsolved — then runs [refine]
    (default 12) golden-section steps around the best bracket. The
    coarse scan is first warmed through the batch API
    ({!Injection.prewarm_noisy}) when the engine carries a cache, then
    fans out over the engine's pool ({!Runtime.Engine.submit_batch});
    the refinement is sequential. The result is independent of the
    pool and of the warm-up. The worst-case waveform is finally mapped
    to [gamma] through [ladder] (default {!Eqwave.Ladder.default})
    with [samples] sampling points — the noisy run at the winning
    alignment is served from cache, so this adds only the fits. *)

val pp : Format.formatter -> result -> unit
