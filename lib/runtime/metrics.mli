(** Counters and stage timers for the evaluation runtime.

    A registry maps names to integer counters and wall-clock timers.
    All operations are domain-safe, so pool workers can report into one
    shared registry. Dotted names ("spice.sims", "cache.hits",
    "stage.table1") group related entries in the report. *)

type t

val create : unit -> t

val incr : ?n:int -> t -> string -> unit
(** Add [n] (default 1) to a counter, creating it at 0. *)

val set : t -> string -> int -> unit

val add_time : t -> string -> float -> unit
(** Accumulate seconds onto a timer, creating it at 0. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a stage and accumulate its wall-clock duration (also on
    exception). *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val timers : t -> (string * float) list
(** Sorted by name; seconds. *)

val capture_spice : ?since:Spice.Transient.Stats.snapshot -> t -> unit
(** Copy the global [Spice.Transient.Stats] counters (simulations, time
    steps, Newton iterations, bisections, gmin retries) into "spice.*"
    counters. With [since], only the delta is recorded. *)

val capture_cache : t -> Cache.t -> unit
(** Copy a cache's hit/miss/read-error/resident counters into
    "cache.*". *)

val capture_resilience : ?since:Resilience.Stats.snapshot -> t -> unit
(** Copy the global {!Resilience.Stats} counters (supervised solves,
    attempts, retries, recoveries, failures, rejected waveforms) into
    "resilience.*". With [since], the entries record only the delta. *)

val capture_guard : ?since:Guard.Stats.snapshot -> t -> unit
(** Copy the global {!Guard.Stats} counters (checked, agreements,
    disagreements, errors, plus the high-water delay delta as
    "guard.max_delta_fs") into "guard.*". With [since], counts record
    only the delta. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable two-column report. *)

val to_prometheus : t -> string
(** Prometheus text exposition (version 0.0.4) of the registry, served
    by the daemon's [/metrics] endpoint. Every dotted counter name maps
    to [sta_] plus the name with non-identifier characters replaced by
    underscores ("server.accepted" -> "sta_server_accepted"); timers
    get a [_seconds] suffix and are rendered in seconds. A name may
    carry a literal label suffix in braces — e.g. the counter
    ["server.latency_ms_bucket{le=\"5\"}"] is exposed as the series
    [sta_server_latency_ms_bucket{le="5"}] — and all series of one base
    name share a single [# TYPE] line. Names ending in [_total],
    [_bucket], [_count] or [_sum] are typed [counter], everything else
    [gauge]. Output is sorted by name, so it is stable across calls. *)
