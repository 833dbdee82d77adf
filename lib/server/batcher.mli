(** Request batching over the shared {!Runtime.Pool}.

    Connection threads turn admitted requests into {!Job.t}s and block
    on {!Job.await}; a single batcher thread runs {!serve}: it pops a
    job, greedily drains consecutive compatible jobs (single-case
    solves, {!Protocol.klass} [Single]) up to [max_batch], and submits
    the whole batch as one [Runtime.Pool.map] — one pool submission for
    many clients, which is what makes the daemon a server rather than a
    per-request process launch. Sweep jobs ([table1]/[montecarlo]) run
    alone; their internal sweep already fans out on the same pool.

    Having exactly one batcher thread serializes pool submissions by
    construction, so the deterministic [Pool.map] contract holds and
    two sweeps never interleave their chunk queues. *)

module Job : sig
  type t

  val make : Protocol.request -> t
  (** Stamps the admission time used for queue-wait accounting. *)

  val await : t -> Json.t
  (** Block until the batcher fills the response document. *)

  val fill : t -> Json.t -> unit
  (** Idempotent; the first fill wins. *)
end

val serve :
  queue:Job.t Workqueue.t ->
  engine:Runtime.Engine.t ->
  metrics:Runtime.Metrics.t ->
  ?max_batch:int ->
  ?queue_timeout_ms:float ->
  ?default_deadline_ms:float ->
  ?progress:int Atomic.t ->
  unit ->
  unit
(** Run the batcher loop until [queue] is closed and drained; every
    popped job is always filled, so graceful drain completes queued
    work. A job that waited longer than [queue_timeout_ms] is answered
    with a typed [Queue_timeout] failure without executing. Each job
    executes under its request's [deadline_ms] (or
    [default_deadline_ms]) installed via [Runtime.Engine.with_deadline].
    [max_batch] defaults to 16. [progress] is incremented once per
    answered job (executed or shed) — the daemon's heartbeat watchdog
    watches it to tell a slow batcher from a wedged one. Counters:
    [server.batches], [server.batched_requests], [server.executed],
    [server.exec_errors], [server.internal_errors],
    [server.queue_timeouts], and the [server.in_flight] gauge. *)
