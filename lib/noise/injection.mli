(** Crosstalk-injection simulation runs.

    [noiseless] and [noisy] run the full Figure-1 chain with the
    transistor-level engine; [receiver_response] re-applies an
    arbitrary stimulus (a technique's Gamma_eff, or the recorded noisy
    waveform) to the isolated receiver — the paper's gate-delay
    propagation step.

    All entry points take a [?engine] ({!Runtime.Engine.t}) selecting
    the solver configuration and cache; under an adaptive engine the
    process 10/50/90 thresholds are installed as crossing-refinement
    levels unless the engine configured its own.

    Every solve runs under the engine's {!Runtime.Resilience.policy}:
    a failed or invalid attempt walks the fallback ladder, and results
    are validated post-solve (finite samples, within rails; the
    full-chain runs additionally require a 0.5 Vdd crossing on both
    probes). A cached waveform that fails validation is purged before
    the ladder retries. An exhausted ladder raises
    [Runtime.Failure.Error] carrying the typed failure — callers in
    sweep loops catch it into failed rows. *)

type run = {
  far : Waveform.Wave.t; (** victim far end, the receiver's input pin (in_u) *)
  rcv : Waveform.Wave.t; (** receiver (INVx16) output (out_u) *)
}

val noiseless : ?engine:Runtime.Engine.t -> Scenario.t -> run
(** Victim switches alone; aggressors hold their rails. With a cached
    engine, the run is memoized under the scenario's content
    fingerprint plus the full solver-config fingerprint. *)

val noisy : ?engine:Runtime.Engine.t -> Scenario.t -> tau:float -> run
(** Victim switches at its nominal time, aggressors start at [tau]. *)

val prewarm_noisy :
  ?engine:Runtime.Engine.t -> Scenario.t -> float array -> int
(** Batch-first warm-up for an alignment sweep: solve every
    not-yet-cached alignment through the batch API
    ({!Spice.Transient.run_batch_outcomes}) and publish the validated
    results into the engine's cache under the keys the scalar {!noisy}
    path reads, so the sweep's subsequent per-case calls are cache
    hits. Cases that fail to solve or validate are left uncached and
    fall back to the scalar resilience ladder when the sweep reaches
    them. Returns the number of cases the batch solved; 0
    without a cache (there is nowhere to publish) and 0 when a fault
    plan is armed (warming would reorder solve-index fault
    assignment). *)

val receiver_response :
  ?dt:float -> ?engine:Runtime.Engine.t ->
  Scenario.t -> input:Spice.Source.t -> tstop:float ->
  Waveform.Wave.t
(** Drive the victim receiver (INVx16 loaded by INVx64) with an ideal
    source and return the INVx16 output waveform. [dt] defaults to half
    the scenario's full-chain step. [tstop] is a cap: the replay stops
    once the receiver has settled away from the process 10/50/90
    thresholds (see {!Spice.Transient.run}), so the returned wave may
    end earlier. Every threshold crossing is the one a run to [tstop]
    gives; past its end the wave holds its last, settled sample.
    Cached under the scenario, the stimulus's content fingerprint and
    the solver-config fingerprint. *)

val ctx_of_runs :
  ?samples:int -> Scenario.t -> noiseless:run -> noisy:run ->
  Eqwave.Technique.ctx
(** Assemble the technique context from the two simulation runs. *)
