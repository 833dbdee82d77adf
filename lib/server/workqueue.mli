(** Bounded FIFO work queue — the daemon's admission-control point.

    Connection threads [try_push] parsed requests; the batcher thread
    [pop]s them. The queue never blocks a producer: when the bound is
    reached the push is refused immediately and the caller sheds the
    request with a typed {!Runtime.Failure.Overloaded} error — load
    shedding at the front door, so a traffic spike costs cheap error
    responses instead of unbounded memory and latency. *)

type 'a t

val create : depth:int -> 'a t
(** Raises [Invalid_argument] when [depth < 1]. *)

val depth : 'a t -> int
(** The configured bound. *)

val length : 'a t -> int
(** Items currently queued. *)

val try_push : 'a t -> 'a -> (unit, [ `Overloaded | `Closed ]) result
(** Non-blocking admission: [Error `Overloaded] when the queue is at
    its bound, [Error `Closed] once {!close} has been called. *)

val pop : 'a t -> 'a option
(** Block until an item is available; [None] once the queue is closed
    and drained, which is the consumer's signal to exit. *)

val try_pop : 'a t -> 'a option
(** Non-blocking pop, for draining compatible batch members after
    {!pop} returned the batch head. *)

val close : 'a t -> unit
(** Refuse further pushes and wake blocked consumers. Items already
    queued are still delivered — graceful drain executes them. *)

