(** CRC-32 (IEEE 802.3) checksums for on-disk integrity checks.

    {!Record} stamps every frame with one — the server's request
    journal, the cache's disk entries and checkpoint entries all share
    that format — and validates it on read, so a torn or bit-rotted
    file is detected instead of deserialised. The
    value is the standard reflected-polynomial CRC-32 (what [cksum -o 3],
    zlib and PNG compute), so hostile test fixtures can be produced with
    any external tool. *)

val string : string -> int32
(** CRC-32 of a whole string. *)

val update : int32 -> string -> int -> int -> int32
(** [update crc s pos len] extends [crc] with a substring, so framed
    formats can checksum without copying. [string s] is
    [update 0l s 0 (String.length s)]. *)
