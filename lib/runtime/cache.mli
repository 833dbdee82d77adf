(** Content-keyed memo table for transient-simulation results.

    Every expensive simulation in the repo ultimately produces a small
    set of probed waveforms, so the cache stores [Waveform.Wave.t list]
    values under hex-digest keys built from the full simulation content
    (circuit/scenario parameters, source stimulus, solver options) via
    {!Key}. The table is sharded, each shard behind its own mutex, so
    domains of a {!Pool} sweep hit different locks; hit/miss counters
    are atomics.

    An optional on-disk layer persists results across process runs:
    misses fall through to [dir/<key>], a {!Record} file (format 5:
    version magic, then one CRC-32 frame holding the OCaml [Marshal]
    payload, validated on every read), and fresh results are written
    back with {!Record.write_atomic}, so a repeated bench invocation
    skips already-simulated cases. The disk copy is lossless: a wave
    read back from disk is bit-identical to the one stored, so answers
    do not depend on which tier served them. Every disk read failure
    is still a miss — sweeps never die on a bad cache entry — but
    failures are classified: corrupt or truncated entries, and entries
    of older formats, bump {!read_errors} and are unlinked so they
    cannot poison future runs; I/O errors (permissions and the like)
    bump {!read_errors} and leave the file in place.

    The disk layer sits behind a {!Breaker}: after a run of consecutive
    disk failures the breaker opens and disk ops are short-circuited
    (the memory shards keep serving) until a cooldown elapses, at which
    point a single half-open probe either re-closes the breaker or
    re-opens it. {!faults} injects deterministic, seeded disk-op
    failures for chaos testing. *)

val faults : unit Faultplan.t
(** Disk-layer fault injection (salt ["cache.fault"], no kind
    prefixes): armed process-globally, so every disk read and write of
    every cache takes the next op index, and a hit fails that op as an
    I/O error. *)

(** Circuit breaker for the disk layer: [Closed] (normal) opens after
    [threshold] consecutive failures; [Open] short-circuits every op
    until [cooldown_s] elapses; then [Half_open] admits exactly one
    probe whose outcome re-closes or re-opens the breaker. *)
module Breaker : sig
  type state = Closed | Open | Half_open
  type t

  val create :
    ?threshold:int -> ?cooldown_s:float -> ?now:(unit -> float) -> unit -> t
  (** [threshold] defaults to 8 consecutive failures, [cooldown_s] to
      5 s. [now] is injectable for sleep-free state-machine tests. *)

  val state : t -> state

  val admit : t -> bool
  (** Should a disk op be attempted right now? [false] means it was
      short-circuited. *)

  val success : t -> unit
  val failure : t -> unit

  val opens : t -> int
  (** Closed/half-open → open transitions. *)

  val recloses : t -> int
  (** Half-open → closed transitions (successful probes). *)

  val short_circuits : t -> int
  (** Ops refused while open/half-open. *)
end

type t

val create :
  ?shards:int ->
  ?disk_dir:string ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  ?now:(unit -> float) ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** [shards] defaults to 16. When [disk_dir] is given the directory is
    created on demand and a {!Breaker} guards the disk layer
    ([breaker_threshold], [breaker_cooldown_s] and [now] configure it);
    without [disk_dir] there is no breaker. [max_disk_bytes] caps the
    disk layer: when a write pushes {!disk_bytes} past the cap,
    entries are LRU-evicted (oldest mtime first) down to 90% of it. *)

(** Key construction. A key is a digest over a tag plus typed parts;
    floats are rendered in lossless hex notation so equal keys mean
    bit-equal inputs. *)
module Key : sig
  type part

  val str : string -> part
  val bool : bool -> part
  val float : float -> part

  val make : string -> part list -> string
  (** [make tag parts] is a stable hex digest. The tag namespaces call
      sites so identical parameter lists from different simulations
      cannot collide. *)
end

val find : t -> string -> Waveform.Wave.t list option
(** Memory first, then disk; a disk hit is promoted into memory. *)

val store : t -> string -> Waveform.Wave.t list -> unit

val memo : t -> string -> (unit -> Waveform.Wave.t list) -> Waveform.Wave.t list
(** [find] or compute-and-[store]. The shard lock is not held during
    the computation: two domains racing on one key may both compute,
    deterministically producing the same value — last store wins. *)

val remove : t -> string -> unit
(** Evict a key from memory and unlink its disk entry (if any). Used
    by the resilience layer to purge cached results that fail
    post-solve validation. *)

type scrub_report = {
  scanned : int;  (** entries read and CRC-validated *)
  corrupt : int;  (** entries that failed validation and were removed *)
  tmp_reaped : int;  (** tmp leftovers from interrupted writes, unlinked *)
  elapsed_s : float;
  complete : bool;  (** the budget covered every disk entry *)
}

val scrub : ?budget_s:float -> ?now:(unit -> float) -> t -> scrub_report
(** Bounded-time startup scrub of the disk layer: CRC-validate entries
    newest-first (a crash or breaker-open window tears the most
    recently written files), {!remove} anything that fails to decode,
    and unlink tmp leftovers from writes the previous process died
    inside. Runs outside the breaker and the fault injector — this is
    the recovery path a crash-only restart takes before serving, so it
    must see the real disk. [budget_s] defaults to 2 s; a no-disk
    cache reports an empty, complete scrub. *)

val hits : t -> int
(** In-memory hits plus disk hits. *)

val disk_hits : t -> int
val misses : t -> int

val read_errors : t -> int
(** Disk-layer read failures mapped to misses (corrupt entries,
    I/O errors). *)

val write_errors : t -> int
(** Disk-layer write failures (full/read-only disk, injected faults) —
    the entry stays memory-only. *)

val bytes_written : t -> int
(** Total bytes of completed disk-entry writes (whole files) since
    creation. *)

val disk_bytes : t -> int
(** Resident bytes of the disk layer: seeded by a directory walk at
    creation, then maintained on every write, unlink and eviction. *)

val evictions : t -> int
(** Disk entries unlinked by the [max_disk_bytes] LRU cap. *)

val breaker_state : t -> Breaker.state option
val breaker_opens : t -> int
val breaker_recloses : t -> int
val breaker_short_circuits : t -> int

val length : t -> int
(** Entries currently resident in memory. *)
