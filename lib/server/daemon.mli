(** The sta_serve daemon: lifecycle, admission control, drain.

    Thread layout (everything on domain 0; compute fans out through
    the engine's domain {!Runtime.Pool}):
    - one accept thread per listening socket (protocol + optional
      HTTP), polling a stop flag;
    - one thread per protocol connection, reading frames, answering
      [ping]/[stats] inline and enqueueing everything else onto a
      bounded {!Workqueue};
    - exactly one {!Batcher} thread popping that queue — the only
      thread that runs solves, so per-request deadlines installed via
      domain-local storage never leak between requests.

    Admission control: when the queue is full, the connection thread
    sheds the request immediately with a typed
    {!Runtime.Failure.Overloaded} response — the daemon never blocks
    accepts or grows memory under overload.

    Connection lifecycle: at most [max_conns] concurrent protocol
    connections — past the budget the acceptor answers one typed
    {!Runtime.Failure.Too_many_connections} frame and closes.
    Optional per-connection read/write deadlines (socket timeouts)
    defend both the framed socket and the HTTP endpoints against
    slowloris peers: an idle timeout silently reclaims the
    connection, a mid-frame timeout answers [timeout] and drops, a
    write timeout drops a peer that stopped draining its socket. An
    optional per-connection frame budget bounds how long one
    connection can monopolise its handler thread. Everything is
    counted under [server.conn_*] metrics ([conn_opened],
    [conn_closed], [conn_active], [conn_shed], [conn_idle_timeouts],
    [conn_read_timeouts], [conn_write_timeouts], [conn_frame_limit],
    [conn_errors]).

    Shutdown sequence ({!stop}, also run on SIGINT/SIGTERM by {!run}):
    stop accepting → close the queue (new requests answered
    [shutting_down]) → batcher drains and answers every queued job →
    half-close connection reads to unblock idle readers → join
    connection threads → unlink the Unix socket. In-flight requests
    always get their response; results cached to disk are already
    persistent (the cache writes through on insert). *)

type config = {
  addr : Client.addr;  (** protocol listener: Unix socket or TCP *)
  http_port : int option;
      (** optional loopback HTTP listener for /metrics and /health *)
  engine : Runtime.Engine.t;
      (** shared evaluation engine; its metrics slot is populated by
          {!start} when empty so server counters and runtime counters
          land in one registry *)
  queue_depth : int;  (** admission queue bound (requests) *)
  max_batch : int;  (** max single-case solves per pool submission *)
  queue_timeout_ms : float option;
      (** shed queued requests older than this with [Queue_timeout] *)
  default_deadline_ms : float option;
      (** per-request solve budget when the request carries none *)
  max_conns : int;
      (** concurrent protocol-connection budget; excess connections
          are shed with [Too_many_connections] *)
  read_timeout_s : float option;
      (** per-connection read deadline (SO_RCVTIMEO), protocol and
          HTTP both *)
  write_timeout_s : float option;
      (** per-connection write deadline (SO_SNDTIMEO) *)
  max_frames_per_conn : int option;
      (** frame budget per connection; answered [frame_limit] when
          exhausted *)
  journal_dir : string option;
      (** write-ahead request journal directory; [None] disables
          crash-safe admission. Solve requests are journaled before
          they enter the workqueue and retired strictly after their
          response frame is flushed; on the next {!start} the
          unretired set is replayed through the same
          [Protocol.execute] path, and a reconnecting client that
          resends the byte-identical payload is answered from the
          replayed-response table without re-executing
          ([server.journal_deduped]). *)
  scrub_budget_s : float option;
      (** bounded-time startup scrub of the engine's disk cache
          ({!Runtime.Cache.scrub}): CRC-validate newest-first, unlink
          corrupt entries and tmp leftovers. [None] skips the scrub. *)
  watchdog_s : float option;
      (** heartbeat watchdog budget: when the queue is non-empty and
          the batcher's progress counter has not moved for this long,
          the daemon declares itself wedged and exits
          with status 70 so the supervisor respawns it ([None]
          disables; [on_wedged] overrides the exit for tests). *)
  restarts : int;
      (** how many supervisor respawns preceded this incarnation;
          surfaced as the [server.restarts] gauge *)
  on_wedged : (unit -> unit) option;
      (** test seam: called instead of [exit] on a watchdog trip *)
}

val default_config : config
(** Unix socket ["/tmp/sta_serve.sock"], no HTTP listener, the [fast]
    engine preset, queue depth 64, max batch 16, no queue timeout, no
    default deadline, 256 max connections, no read/write deadlines, no
    frame budget, no journal, no scrub, no watchdog. *)

type t

val start : config -> t
(** Bind, listen, and spawn the serving threads; returns immediately.
    Raises [Unix.Unix_error] when the address cannot be bound. *)

val addr : t -> Client.addr
val metrics : t -> Runtime.Metrics.t

val conn_active : t -> int
(** Number of live protocol connections right now. Drains to zero
    after {!stop}; chaos harnesses poll it to prove no connection (and
    so no fd) leaked. *)

val health : t -> Json.t
(** The health document served on [GET /health]:
    [{"status":s,"reasons":[...]}] where [s] is ["draining"] during
    shutdown, ["degraded"] with reasons drawn from [breaker_open]
    (disk-cache circuit breaker open or half-open),
    [replay_in_progress] (journal replay still running), and
    [queue_saturated] (admission queue at capacity), or ["ok"]. *)

val stop : t -> unit
(** Graceful drain as described above; blocks until every thread has
    exited. Idempotent. *)

val run : config -> unit
(** {!start}, then block until SIGINT or SIGTERM, then {!stop}. *)
