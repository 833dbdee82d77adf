(** Socket accept loops and the minimal HTTP observability endpoint.

    {!accept_loop} is a select-with-timeout accept loop that polls a
    stop flag between waits, so shutting the daemon down never hangs
    on a blocked [accept]. The callback runs on the accept thread —
    callers that want per-connection threads spawn them inside it.

    The HTTP side serves exactly two read-only paths over HTTP/1.0
    close-per-request:
    - [GET /metrics] — {!Runtime.Metrics.to_prometheus} exposition of
      the shared metrics registry (runtime counters plus the server's
      accepted/shed/in-flight/latency-histogram series);
    - [GET /health] — the [health] callback's body (["ok\n"] while
      serving, ["draining\n"] during shutdown) with status 200.

    Anything else is a 404. A header block over the request cap is a
    413, an expired socket read deadline a 408; both — plus any
    I/O error mid-exchange — count under [server.http_errors] so a
    flapping scrape target is visible to operators. After either error
    the connection is drained (see {!drain_s}) before it is closed, so
    the unread rest of the request cannot make the kernel reset the
    connection and destroy the response. There is
    deliberately no request body handling, keep-alive, or TLS — this
    is an operability port, not a web server. *)

val accept_loop :
  stop:bool Atomic.t ->
  Unix.file_descr ->
  (Unix.file_descr -> Unix.sockaddr -> unit) ->
  unit
(** Accept connections on a listening socket until [stop] is set;
    returns without closing the listening descriptor. Transient accept
    errors ([EINTR], [ECONNABORTED]) are retried. *)

val drain_s : float
(** Longest time, in seconds, a connection answered 413 or 408 is held
    open after its response: the handler shuts down its send side, then
    reads and discards the rest of the request until the peer's EOF, a
    byte cap, or this bound. *)

val handle_http :
  metrics:Runtime.Metrics.t ->
  health:(unit -> string) ->
  Unix.file_descr ->
  unit
(** Serve one HTTP request on [fd] and close it (also on error).
    Honours an armed [SO_RCVTIMEO]/[SO_SNDTIMEO] on [fd]. *)
