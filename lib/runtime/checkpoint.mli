(** Versioned, atomically-written journal of completed sweep cases.

    A sweep ([Noise.Eval.run_table], [Noise.Montecarlo.run]) opens a
    journal keyed by a {e fingerprint} of everything that determines
    its per-case results — scenario, solver config, resilience policy,
    technique set, seed. Each finished case is recorded as its own
    [case-NNNNNN] {!Record} file (format 3: version magic, then one
    CRC-32 frame holding the [Marshal] payload) via
    {!Record.write_atomic}, so a kill at any instant leaves only
    complete entries, and a bit-rotted entry fails its checksum on
    [find] (it is unlinked and recomputed) instead of reaching
    [Marshal]. Re-running the same sweep replays recorded cases
    from the journal and computes only the missing ones; since case
    evaluation is deterministic, the resumed output is byte-identical
    to an uninterrupted run.

    Opening with a fingerprint that does not match the journal on disk
    (the sweep changed, or the format version did) wipes the stale
    entries rather than replaying results from a different sweep.

    [find] marshals back whatever type [record] stored; the caller
    must pair them on the same type and include a payload-schema tag
    in the fingerprint so a layout change invalidates old journals. *)

type t

val open_ : dir:string -> name:string -> fingerprint:string -> t
(** Open (creating directories as needed) the journal [dir/<name>]
    ([name] is sanitized to filesystem-safe characters). Entries
    recorded under a different fingerprint are deleted. *)

val find : t -> int -> 'a option
(** Recorded result for case [i], or [None] if absent or torn (a torn
    entry is unlinked). *)

val record : t -> int -> 'a -> unit
(** Persist case [i] atomically. I/O failure (full disk) is swallowed:
    the journal degrades to recomputation, never crashes the sweep. *)
