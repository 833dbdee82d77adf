(** Deterministic network fault injection for chaos testing.

    One {!Faultplan} injector ({!injector}) over every fd op, so a
    given (plan, op sequence) always faults the same ops. {!read} and
    {!write} are drop-in replacements for [Unix.read]/[Unix.write]
    with a one-atomic-load fast path when disarmed; [Protocol]'s
    framing routes every fd op through them, so arming a plan subjects
    both the daemon and any in-process clients to the same chaos.

    Fault kinds:
    - [Torn] — the op is truncated to one byte, exercising the
      callers' partial-I/O loops.
    - [Stall] — the op sleeps first, tripping the peer's read/write
      deadline.
    - [Drop] — the socket is shut down and the op raises
      [ECONNRESET]: a mid-frame disconnect.
    - [Corrupt] — one byte is flipped (in a copy on the write side;
      the caller's buffer is never mutated), producing garbage frame
      lengths and malformed JSON downstream. *)

type kind = Torn | Stall | Drop | Corrupt

val injector : kind Faultplan.t
(** The network injector: salt ["net.fault"], spec prefixes
    [torn:|stall:|drop:|corrupt:] (e.g. ["0.05@7"], ["drop:nth:3"],
    ["stall:0.1"]). A plan without a kind rotates through all four by
    op index, so a single flag exercises every failure mode. Disarm and
    read counters through [Faultplan]; arm through {!arm}. *)

val arm : ?stall_s:float -> kind Faultplan.plan -> unit
(** [Faultplan.arm injector], first setting the [Stall] sleep
    ([stall_s], default 0.2 s). *)

val read : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read] through the fault plan. *)

val write : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.write] through the fault plan. *)
