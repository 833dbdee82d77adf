(** Wire protocol of the STA daemon.

    Frames are length-prefixed JSON: a 4-byte big-endian payload length
    followed by one JSON document. Requests carry a client-chosen [id]
    (echoed back verbatim), an [op], op-specific parameters, and an
    optional per-request [deadline_ms]; responses are either
    [{"id":..,"ok":<body>}] or [{"id":..,"error":{"code","message",
    "recoverable"}}] where [code] is {!Runtime.Failure.code} for typed
    failures, or ["bad_request"]/["internal"] for protocol-level ones.

    Ops:
    - [ping] — liveness; answered inline, never queued.
    - [stats] — server counter snapshot; answered inline.
    - [delay] — one noise-injection case ([config], [tau_ps],
      [technique]): reference gate delay plus the technique's
      Gamma_eff delay estimate (a Table-1 cell).
    - [gamma] — the Gamma_eff mapping alone ([config], [tau_ps],
      optional [ladder] name list): accepted rung, ramp arrival/slew,
      deviation score.
    - [table1] — a full Table-1 sweep ([config], [cases], optional
      [techniques], [samples], optional [prune_tol_ps]).
    - [montecarlo] — a Monte-Carlo shard ([config], [samples], [seed],
      optional [prune_tol_ps]).

    A positive [prune_tol_ps] (added in 1.2) turns on the
    branch-and-bound alignment pruning: the [table1] response then
    carries a ["prune"] object ([total]/[solved]/[pruned]/[rounds])
    and the [montecarlo] response counts [pruned] draws. Absent or 0
    keeps the exhaustive sweep, so 1.1 clients see unchanged
    responses.

    {!execute} is the single evaluation path: the daemon's batcher runs
    it on queued requests, and the bench runs it directly to assert
    that socket responses are byte-identical to in-process calls. *)

type query =
  | Ping
  | Stats
  | Delay of { config : string; tau : float; technique : string }
  | Gamma of { config : string; tau : float; ladder : string list option }
  | Table1 of {
      config : string;
      cases : int;
      techniques : string list option;
      samples : int option;
      prune_tol_ps : float;
          (** 0 = exhaustive sweep (the pre-1.2 behavior) *)
    }
  | Montecarlo of {
      config : string;
      samples : int;
      seed : int;
      prune_tol_ps : float;
    }

type request = { id : int; query : query; deadline_ms : float option }

val version : string
(** Protocol/daemon version reported by [ping], [--version], and the
    [version] field of every request and response envelope. *)

(** {1 Request parsing} *)

type parse_error =
  | Bad_request of string
      (** malformed payload; the string is a human-readable reason *)
  | Version_mismatch of { id : int; got : string }
      (** the request carried a [version] whose major component differs
          from (or cannot be compared with) this server's {!version};
          its parameters were not interpreted *)

val parse_request : string -> (request, parse_error) result
(** Parse and validate one request payload. A [version] field, when
    present, is checked first: same-major versions are accepted,
    anything else is rejected as {!Version_mismatch} before any other
    field is read. Requests without a [version] are accepted (pre-1.1
    clients never sent one). *)

val parse_error_response : parse_error -> Json.t
(** The response frame for a rejected payload: code ["bad_request"]
    (id 0 when the payload was too broken to extract one) or
    ["version_mismatch"] (echoing the request id). *)

val request_to_json : request -> Json.t
(** Client-side rendering of a request (inverse of {!parse_request});
    stamps this library's {!version} into the envelope. *)

(** {1 Batching} *)

type klass =
  | Inline  (** ping/stats: answered on the connection thread *)
  | Single of string
      (** one-case solves, keyed by scenario name: compatible requests
          are batched into a single pool submission *)
  | Sweep  (** table1/montecarlo: run alone, parallel internally *)

val klass : query -> klass

(** {1 Execution} *)

val execute :
  engine:Runtime.Engine.t ->
  ?metrics:Runtime.Metrics.t ->
  query ->
  (Json.t, Runtime.Failure.t) result
(** Evaluate one query on [engine]. Deterministic for deterministic
    engines: the response body contains no timestamps or host state,
    so a warm server cache and a cold in-process run yield identical
    bytes. Solve failures escaping the engine's resilience ladder are
    classified into typed failures; unknown technique/scenario names
    surface as [Unsupported]. [metrics] backs the [stats] op. *)

val response : id:int -> (Json.t, Runtime.Failure.t) result -> Json.t
val error_response : id:int -> code:string -> string -> Json.t

(** {1 Framing} *)

val read_frame :
  Unix.file_descr ->
  ( string,
    [ `Eof | `Timeout of [ `Idle | `Mid_frame ] | `Err of string ] )
  result
(** Read one length-prefixed frame, blocking. [`Eof] on clean
    connection close at a frame boundary. On a socket armed with
    [SO_RCVTIMEO], an expired deadline surfaces as [`Timeout `Idle]
    (no byte of the next frame had arrived — a quiet connection) or
    [`Timeout `Mid_frame] (the peer started a frame and stalled — the
    slowloris signature). A length prefix above 16 MiB is an [`Err]:
    a corrupt prefix must not allocate unboundedly. All fd ops go
    through {!Netfault}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame; raises [Invalid_argument] on a payload above
    16 MiB and [Unix.Unix_error] on a dead peer (or
    [EAGAIN] past an armed [SO_SNDTIMEO] write deadline). All fd ops
    go through {!Netfault}. *)
