(* Deterministic network fault injection: one {!Faultplan} injector
   over every fd op. [read]/[write] are drop-in replacements for
   [Unix.read]/[Unix.write] with a one-atomic-load fast path when
   disarmed; the framing layer ([Protocol]) routes every fd op through
   them. *)

type kind = Torn | Stall | Drop | Corrupt

(* A plan without a kind rotates through all four by op index, so one
   flag exercises every failure mode. *)
let injector =
  Faultplan.create ~salt:"net.fault"
    ~kinds:
      [ ("torn", Torn); ("stall", Stall); ("drop", Drop); ("corrupt", Corrupt) ]
    ~default:(fun k ->
      match k mod 4 with 0 -> Torn | 1 -> Stall | 2 -> Corrupt | _ -> Drop)

(* The [Stall] sleep, set by [arm]. *)
let stall = Atomic.make 0.2

let arm ?(stall_s = 0.2) plan =
  Atomic.set stall stall_s;
  Faultplan.arm injector plan

(* ------------------------------------------------------------------ *)
(* Faulted fd ops. Torn truncates the op to one byte (exercising the
   callers' partial-I/O loops), Stall sleeps before the op (tripping
   the peer's deadline), Drop shuts the socket down and raises
   ECONNRESET (mid-frame disconnect), Corrupt flips one byte — in a
   copy on the write side so the caller's buffer is never mutated. *)

let drop fd op =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error (_, _, _) -> ());
  raise (Unix.Unix_error (Unix.ECONNRESET, op, "injected net fault"))

let corrupt_byte buf ofs len =
  if len > 0 then
    Bytes.set buf ofs (Char.chr (Char.code (Bytes.get buf ofs) lxor 0x20))

let read fd buf ofs len =
  match Faultplan.roll injector with
  | None -> Unix.read fd buf ofs len
  | Some Torn -> Unix.read fd buf ofs (Int.min 1 len)
  | Some Stall ->
      Thread.delay (Atomic.get stall);
      Unix.read fd buf ofs len
  | Some Drop -> drop fd "read"
  | Some Corrupt ->
      let n = Unix.read fd buf ofs len in
      corrupt_byte buf ofs n;
      n

let write fd buf ofs len =
  match Faultplan.roll injector with
  | None -> Unix.write fd buf ofs len
  | Some Torn -> Unix.write fd buf ofs (Int.min 1 len)
  | Some Stall ->
      Thread.delay (Atomic.get stall);
      Unix.write fd buf ofs len
  | Some Drop -> drop fd "write"
  | Some Corrupt ->
      let copy = Bytes.sub buf ofs len in
      corrupt_byte copy 0 len;
      Unix.write fd copy 0 len
