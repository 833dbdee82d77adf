(** Write-ahead log of admitted requests — the daemon's crash-safety
    backbone.

    The retire protocol: an {!admit} record is written (and flushed)
    {e before} the request enters the workqueue; the matching
    {!retire} is written only {e after} the response frame has been
    flushed to the client socket. {!open_} therefore recovers exactly
    the requests that were admitted but whose answer is not known to
    have reached a client — the set the daemon must replay.

    On-disk format: numbered segment files ([wal-NNNNNN.seg]), each a
    [Runtime.Record] file — a versioned magic line followed by
    length-prefixed CRC-32-stamped frames ([u32_be len | body | u32_be
    crc]; body is a one-byte kind, a 32-char hex digest, and — for
    admits — the raw request payload). Decoding tolerates hostility: a
    CRC-corrupt record is skipped (the length prefix still locates the
    next boundary), a truncated tail ends the segment, a valid frame of
    an unknown kind is skipped, a duplicate retire is a no-op, and a
    segment with the wrong magic is ignored whole. {!open_} always
    compacts the surviving pending set into one fresh segment via
    [Runtime.Record.write_atomic] and only then unlinks the old files,
    so the journal never appends after a torn tail and replay is
    idempotent: open → kill → open twice recovers the same set as
    once.

    Durability is process-crash durability: records are flushed to the
    kernel on every write but not fsynced, so a SIGKILL/OOM-kill loses
    nothing while an OS-level power cut may lose the last instants.
    Disk-write failures degrade (counted in [write_errors]) rather
    than stop the service; a rotation that cannot write its compacted
    segment keeps appending to the live one.

    All operations are thread-safe. *)

type t

type entry = { digest : string; payload : string }
(** One admitted-but-unretired request: the 32-char hex request digest
    and the raw request payload bytes as received. *)

type stats = {
  appended : int;  (** admit records written by this process *)
  retired : int;  (** retire records written by this process *)
  pending : int;  (** admitted and not yet retired, replay included *)
  rotations : int;  (** compactions after open *)
  replayed : int;  (** pending entries recovered by {!open_} *)
  torn_tails : int;  (** truncated segment tails dropped at decode *)
  crc_skipped : int;
      (** CRC-mismatched records, and valid ones of an unknown kind or
          too short for a digest, skipped *)
  bad_segments : int;  (** unreadable or wrong-magic segments ignored *)
  write_errors : int;  (** failed journal writes (service kept going) *)
}

val open_ : ?max_segment_bytes:int -> string -> t
(** Open (creating the directory if needed), decode every segment,
    compact the pending set into a fresh segment and unlink the old
    ones. Recovered entries are available via {!pending}; recovery
    counters via {!stats}. [max_segment_bytes] (default 4 MiB) bounds
    the live segment before rotation drops retired records from
    disk. Raises [Sys_error] when the compacted segment cannot be
    written (a full disk); the old segments are then left untouched,
    so nothing pending is lost. *)

val digest : string -> string
(** Request digest: 32-char hex MD5 of the raw payload bytes. A
    client that re-sends byte-identical payload bytes (deterministic
    request rendering) lands on the same digest, which is what lets
    the daemon dedup a retried request against a replayed response. *)

val admit : t -> digest:string -> payload:string -> unit
(** Journal an admitted request. Idempotent per digest: a payload
    already pending is not re-written (a reconnecting client racing
    replay). Must happen-before the request enters the workqueue. *)

val retire : t -> string -> unit
(** Journal the retirement of [digest]. Idempotent; a digest that is
    not pending is a no-op. Must happen-after the response frame was
    flushed to the client. *)

val pending : t -> entry list
(** Admitted-but-unretired entries, in admit order. *)

val stats : t -> stats
val close : t -> unit

(** {1 Format internals}

    Exposed so torture tests and the fuzz corpus generator can craft
    hostile segments byte-exactly. *)

val magic : string
(** Segment header line. *)

val encode_admit : digest:string -> payload:string -> string
(** One framed admit record (length prefix + body + CRC). Raises
    [Invalid_argument] unless [digest] is 32 chars. *)
