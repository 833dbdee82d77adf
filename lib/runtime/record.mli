(** The one on-disk record format, and the file plumbing every durable
    writer shares.

    A record file is a versioned magic line followed by frames:

    {v u32_be len | body | u32_be crc32(body) v}

    The server's request journal ([Server.Journal]) appends many frames
    to a segment; a cache entry ({!Cache}) and a checkpoint entry
    ({!Checkpoint}) are one frame each. The CRC-32 ({!Crc32}) catches
    bit rot and partially overwritten blocks; the length prefix locates
    the next frame even when a body fails its check. A file whose magic
    does not match is not read at all, which is how a format bump
    retires older files. *)

val frame : string -> string
(** One framed body. *)

val encode : magic:string -> string list -> string
(** A whole file: [magic] then one frame per body. *)

type scan = {
  bodies : string list;  (** intact bodies, in file order *)
  crc_skipped : int;  (** frames skipped because their CRC failed *)
  torn : bool;  (** the file ends inside a frame: a truncated tail *)
}

val scan : magic:string -> string -> scan option
(** Decode a file's raw bytes; [None] when it does not start with
    [magic]. Never raises: hostile bytes only skip frames or end the
    scan. *)

val single : magic:string -> string -> string option
(** The body of a file holding exactly one intact frame, else [None]. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] when it cannot be opened. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a tmp file named
    [path.tmp.<pid>.<domain>] and renames it over [path], so readers
    only ever see complete files, even with writers in other processes
    or domains. Any
    error — including a full disk, which surfaces when the tmp file is
    closed — unlinks the tmp file and re-raises; [path] is then
    untouched. *)

val is_tmp : string -> bool
(** Whether a directory entry is a {!write_atomic} tmp leftover (a
    writer died before its rename). *)

val ensure_dir : string -> unit
(** Create the directory if it is missing (its parent must exist). *)
