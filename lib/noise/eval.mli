(** Technique evaluation harness — the machinery behind Table 1.

    For each noise-injection case the noisy waveform at the receiver
    input is recorded, every technique reduces it to Gamma_eff, the
    receiver is re-simulated under Gamma_eff, and the resulting gate
    delay (0.5 Vdd input crossing to 0.5 Vdd output crossing, latest
    crossings) is compared against the reference response.

    The reference is the receiver driven by the *recorded noisy
    waveform itself* (an ideal-source replay): this isolates exactly
    the error introduced by the waveform reduction, which is what the
    paper's Table 1 measures. The full-chain receiver output is also
    carried through so tests can confirm the replay is faithful. *)

type degradation = {
  technique : string;  (** the technique whose rung accepted the case *)
  rung : int;          (** its 0-based position in the ladder *)
  score_v : float;     (** RMS ramp-vs-noisy deviation, volts *)
  skipped : (string * string) list;
      (** (technique, reason) for every rung skipped before acceptance *)
}
(** How the Gamma_eff degradation ladder ({!Eqwave.Ladder}) resolved a
    case. Declared before {!case_metrics} so the shared [technique]
    field keeps resolving to the latter. *)

type case_metrics = {
  technique : string;
  ramp : Waveform.Ramp.t option;      (** None when the technique bailed *)
  delay_est : float option;           (** its gate delay estimate *)
  delay_err : float option;           (** delay_est - delay_ref *)
  out_arrival_err : float option;     (** absolute output-crossing error *)
  out_slew_err : float option;        (** output 10-90 slew error vs the
                                          reference response *)
  failure : Runtime.Failure.t option; (** why the technique has no result *)
}

type case_eval = {
  tau : float;
  delay_ref : float;                  (** reference gate delay *)
  ref_out_arrival : float;
  chain_vs_replay : float;            (** replay-fidelity diagnostic, s *)
  mapping : (degradation, Runtime.Failure.t) result;
      (** ladder outcome: a ramp with rung/score, or a typed failure —
          [Mapping_exhausted] when every rung rejected the waveform,
          the underlying solve failure when the reference simulation
          itself failed *)
  metrics : case_metrics list;
}

val failed_case :
  Eqwave.Technique.t list -> tau:float -> Runtime.Failure.t -> case_eval
(** A case whose reference simulation itself failed: every technique
    metric carries the typed failure, and the reference fields are
    nan sentinels that row aggregation never reads. *)

val failure_of_exn : exn -> Runtime.Failure.t option
(** Sweep-level exception classification: [Runtime.Failure.of_exn]
    extended with technique-domain errors
    ([Eqwave.Technique.Unsupported], [Stdlib.Failure]). [None] means a
    genuine bug that should propagate. *)

val sweep_fingerprint :
  tag:string ->
  schema:string ->
  ?samples:int ->
  ?ladder:Eqwave.Ladder.t ->
  techs:Eqwave.Technique.t list ->
  engine:Runtime.Engine.t ->
  Scenario.t ->
  string list ->
  string
(** Checkpoint fingerprint covering everything that determines a
    per-case result: scenario (including window and case count),
    solver config, resilience policy, sample count, technique set,
    degradation-ladder order ([ladder], defaulting to
    {!Eqwave.Ladder.default}), the engine's deadline and guard
    settings, plus caller-specific [extra] parts. [schema] tags the
    marshalled payload layout. Shared by the Table-1 and Monte-Carlo
    sweep drivers. *)

val evaluate_case :
  ?techniques:Eqwave.Technique.t list ->
  ?samples:int ->
  ?ladder:Eqwave.Ladder.t ->
  ?engine:Runtime.Engine.t ->
  ?noisy:Injection.run ->
  Scenario.t -> noiseless:Injection.run -> tau:float -> case_eval
(** Runs one noisy full-chain simulation plus one receiver simulation
    per technique. [noisy] overrides the case's noisy run when the
    caller already holds it — Monte-Carlo substitutes the noiseless
    run for draws whose alignment provably cannot overlap the victim's
    critical window. [techniques] defaults to [Eqwave.Registry.all];
    [samples] is the paper's P (default 35). [engine] selects solver
    config and cache (see {!Runtime.Engine}). With a cache, every underlying transient
    simulation is memoized by content (scenario, case, and full solver
    configuration), so re-evaluating a case is free. A technique whose
    receiver re-simulation fails to converge is reported as a failed
    metric rather than raising. [ladder] (default
    {!Eqwave.Ladder.default}) produces the case's [mapping]: which
    rung accepted the waveform and at what deviation score. *)

type row = {
  name : string;
  max_abs_ps : float;
  avg_abs_ps : float;
  n_cases : int;
  n_failed : int;
}

type degradation_summary = {
  ladder : string list;   (** technique names, rung order *)
  rung_counts : int array;
      (** cases resolved at each rung; same length as [ladder] *)
  n_exhausted : int;      (** cases where every rung rejected *)
  n_unmapped : int;
      (** cases that never reached the ladder (reference solve failed) *)
  avg_score_v : float;    (** mean deviation score over mapped cases *)
}

type table = {
  scenario : string;
  rows : row list;                    (** in the order techniques were given *)
  cases : case_eval list;
  degradation : degradation_summary;
  prune : Alignment.stats option;
      (** branch-and-bound accounting when the sweep ran with a
          positive [prune_tol_ps]; [cases] then holds only the solved
          alignments (grid order preserved) *)
}

val run_table :
  ?techniques:Eqwave.Technique.t list ->
  ?samples:int ->
  ?ladder:Eqwave.Ladder.t ->
  ?progress:(int -> int -> unit) ->
  ?checkpoint_dir:string ->
  ?engine:Runtime.Engine.t ->
  ?prune_tol_ps:float ->
  Scenario.t -> table
(** Sweep all scenario cases. With [prune_tol_ps] positive, the
    alignment grid first goes through {!Alignment.search} and only the
    solved alignments are evaluated ([table.prune] reports the
    accounting); the default 0 keeps the exhaustive sweep — and the
    historical checkpoint fingerprint — untouched. Pruning is ignored
    under an armed fault plan (it would reorder deterministic fault
    assignment). [progress done_ total] is called after
    each case with the number completed so far (from worker domains
    when the engine carries a pool, so it must be quick and
    thread-safe). Cases are distributed over the engine's pool via
    {!Runtime.Engine.submit_batch}; the resulting table is identical
    to the sequential one — rows and cases stay in input order.

    When the engine carries a cache and its batch width is above 1,
    the not-yet-cached (and not-yet-checkpointed) alignments are first
    pre-solved through the batch API ({!Injection.prewarm_noisy}) in
    engine-batch-sized groups, so the per-case evaluations below hit
    the cache. Warming publishes only
    validated results under the exact keys the scalar path reads, so
    the table stays byte-identical to the unwarmed sweep.

    Sweeps always return a table: a case whose simulation fails beyond
    the engine's {!Runtime.Resilience} fallback ladder becomes a row
    of typed failed metrics counted in [n_failed] (with nan reference
    fields) instead of aborting the sweep.

    With [checkpoint_dir], every completed case is journaled
    ({!Runtime.Checkpoint}) under a fingerprint of the whole sweep; a
    re-run after an interruption replays journaled cases and computes
    only the missing ones, producing a byte-identical table.

    When the engine carries a {!Runtime.Guard}, the deterministic
    sample of cases it selects is re-evaluated under the reference
    preset and the delay deltas are recorded into the process-global
    [Runtime.Guard.Stats]; when it carries a deadline, each solve
    attempt runs under that wall-clock budget and a cancelled case
    becomes a typed [Deadline_exceeded] failure. *)

val pp_table : Format.formatter -> table -> unit
(** Render in the shape of the paper's Table 1 (max / avg, ps), plus a
    ladder-degradation summary line. *)
