(** Simulation-driven cell characterization.

    Sweeps a (input slew x output load) grid, simulating the cell with
    the transistor-level engine and measuring mid-to-mid delay and
    10-90 output transition — exactly how an ASIC library vendor fills
    NLDM tables, with our [spice] engine standing in for HSPICE. *)

type grid = {
  slews : float array; (** 10-90 input transition times to sweep *)
  loads : float array; (** output load capacitances to sweep *)
}

val default_grid : Device.Process.t -> Device.Cell.t -> grid
(** Seven slews 20 ps .. 400 ps; seven loads from 0.5x to 24x the
    cell's own input capacitance. *)

val run :
  ?grid:grid -> ?dt:float ->
  ?engine:Runtime.Engine.t ->
  Device.Process.t -> Device.Cell.t -> Nldm.cell_timing
(** Characterize one cell. [dt] defaults to 0.5 ps. Both polarities'
    grid points fan out over the engine's pool as one job list via
    {!Runtime.Engine.submit_batch} (the tables are identical to the
    sequential sweep); the engine's cache memoizes each measurement
    simulation by content — scenario plus full solver-config
    fingerprint — so re-characterizing an unchanged cell is free.
    Raises [Runtime.Failure.Error] with
    [Missing_crossing] when a measurement point produces no output
    transition (which indicates a broken cell or an absurd grid). *)

val measure_gate :
  ?dt:float -> ?extra_load:float ->
  ?engine:Runtime.Engine.t ->
  Device.Process.t -> Device.Cell.t ->
  input:Spice.Source.t -> tstop:float -> Waveform.Wave.t * Waveform.Wave.t
(** [measure_gate proc cell ~input ~tstop] simulates the cell alone
    driven by [input] with [extra_load] farads at the output (default
    0) and returns (input waveform, output waveform) at the pins.
    [tstop] is a cap: the run stops once the cell has settled away from
    the process 10/50/90 thresholds (see {!Spice.Transient.run}), so
    the waves may end earlier, holding their settled value beyond. The
    shared primitive behind characterization and behind the
    equivalent-waveform evaluation harness. Runs under the engine's
    {!Runtime.Resilience} policy: failed or invalid solves walk the
    fallback ladder; an exhausted ladder raises
    [Runtime.Failure.Error]. *)
