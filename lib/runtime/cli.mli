(** Shared command-line vocabulary for the front-ends.

    [bin/sta_main], [bin/sta_serve], and [bench/main] all configure the
    same evaluation runtime; this module defines the cmdliner flags
    once — engine preset, adaptive tolerance, worker domains, batch
    width, cache directory and disk cap, resilience policy, per-solve
    deadline, differential guard, fault injection — and folds the
    parsed values into a {!Engine.t}. The spec alone determines the
    engine, so the three front-ends assemble it the same way.

    The term yields a transparent {!spec} first (the raw flag values),
    so front-ends that echo their configuration (the bench [--json]
    report) don't have to reverse-engineer it from the engine. *)

type spec = {
  engine_name : string;       (** [--engine], a validated preset name *)
  ltetol : float option;      (** [--ltetol], volts *)
  jobs : int;                 (** [--jobs], clamped to >= 1 *)
  batch : int option;         (** [--batch], batch width *)
  use_cache : bool;           (** negated [--no-cache] *)
  cache_dir : string option;  (** [--cache-dir] *)
  fallback : string;          (** [--fallback], a validated policy name *)
  retries : int option;       (** [--retries] *)
  deadline_ms : float option; (** [--deadline] *)
  guard : bool;               (** [--guard] *)
  guard_every : int;          (** [--guard-every] *)
  guard_tol_ps : float;       (** [--guard-tol-ps] *)
  fault : Spice.Transient.Fault.kind Faultplan.plan option;
      (** [--inject-faults] *)
  cache_fault : unit Faultplan.plan option;  (** [--inject-cache-faults] *)
  prune_tol_ps : float;
      (** [--prune-tol-ps], alignment branch-and-bound slack; 0 =
          exhaustive sweep *)
  cache_max_mb : int option;  (** [--cache-max-mb], LRU disk cap *)
}

type sweep = {
  metrics : bool;               (** [--metrics] *)
  checkpoint_dir : string option; (** [--checkpoint] *)
  ladder : string list option;
      (** [--ladder], comma-split technique names. Left as raw strings
          — the runtime layer doesn't know the technique registry;
          callers resolve via [Eqwave.Ladder.of_names]. *)
}

val int_at_least : int -> int Cmdliner.Arg.conv
(** An integer flag value of at least the bound; anything else is a
    usage error naming the flag (exit 124) instead of an exception deep
    in the run. *)

val fault_conv : 'k Faultplan.t -> 'k Faultplan.plan Cmdliner.Arg.conv
(** A fault spec in the injector's vocabulary ({!Faultplan.of_string}):
    the one parser behind [--inject-faults], [--inject-cache-faults]
    and [--inject-net-faults]. *)

val spec_term :
  ?default_engine:string -> ?default_cache_dir:string -> unit ->
  spec Cmdliner.Term.t
(** The engine-configuration flags. [default_engine] defaults to
    ["reference"] ([sta_serve] passes ["fast"]); [default_cache_dir]
    is the default for [--cache-dir] (the bench passes its on-disk
    cache directory, the binaries keep the cache in memory). *)

val sweep_term : unit -> sweep Cmdliner.Term.t
(** The sweep-harness flags ([--metrics]/[--checkpoint]/[--ladder]) —
    separate from {!spec_term} so a front-end without sweeps (the
    daemon) doesn't advertise them. *)

val engine_of_spec : spec -> Engine.t
(** Assemble the engine: preset, then tolerance, resilience policy
    (with the retry budget), deadline, guard, batch width; a fresh
    {!Pool} when [jobs > 1] and a fresh {!Cache} unless disabled. The
    caller owns the pool ({!Engine.pool}) and must shut it down. Does
    NOT arm fault injection — call {!arm_faults} exactly once per
    process. *)

val arm_faults : spec -> unit
(** Arm [--inject-faults] and [--inject-cache-faults] (both
    process-global); no-op without the flags. *)
