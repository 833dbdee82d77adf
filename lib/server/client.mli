(** Blocking client for the sta_serve wire protocol.

    One {!t} wraps one connected socket; calls are synchronous
    request/response pairs over {!Protocol.read_frame}/[write_frame].
    A client is not thread-safe — concurrent load generators open one
    client per thread, which is also how real callers behave.

    {!call_raw} exposes the response payload bytes untouched, which is
    what the bench's byte-identity check compares against a direct
    {!Protocol.execute} rendering. *)

type addr = Unix_path of string | Tcp of string * int

val addr_to_string : addr -> string

type t

val connect :
  ?retries:int -> ?read_timeout_s:float -> ?write_timeout_s:float -> addr -> t
(** Connect, retrying [retries] times (default 100, 50 ms apart) while
    the target refuses or does not exist yet — absorbs the daemon
    startup race in tests and CI. Raises [Unix.Unix_error] once the
    retries are exhausted. [read_timeout_s]/[write_timeout_s] arm
    socket deadlines ([SO_RCVTIMEO]/[SO_SNDTIMEO]) so a stalled or
    dead server surfaces as a transport error instead of hanging the
    caller. *)

val close : t -> unit

val call_raw : t -> Protocol.request -> (string, string) result
(** Send one request, return the raw response payload. [Error] means a
    transport-level problem (closed connection, truncated frame) — a
    typed failure from the server still arrives as [Ok] bytes carrying
    an [error] document. *)

val call : t -> Protocol.request -> (Json.t, string) result
(** {!call_raw} plus JSON parsing. *)

val ping : t -> (Json.t, string) result
(** [{"op":"ping"}] round-trip; the [ok] body reports the daemon's
    protocol version and engine name. *)

(** {1 Retrying calls}

    Transport failures against a chaotic server (refused, reset,
    torn frame, timeout) are usually transient; {!call_raw_with_retry}
    absorbs them with a fresh connection per attempt and capped
    exponential backoff, under a hard attempt budget so callers always
    end with a typed {!retry_error} rather than an unbounded loop. *)

type retry_policy = {
  attempts : int;  (** total attempts including the first (>= 1) *)
  base_delay_s : float;  (** backoff before attempt 2 *)
  max_delay_s : float;  (** backoff cap *)
  seed : int;
      (** jitter seed — deterministic digest-based jitter in
          [0.5, 1.0] of the capped delay desynchronises concurrent
          clients without a global RNG *)
}

type retry_error = { attempts : int; last : string }
(** The budget was exhausted; [last] is the final attempt's failure. *)

val call_raw_with_retry :
  ?policy:retry_policy ->
  ?retry_recoverable:bool ->
  ?read_timeout_s:float ->
  ?write_timeout_s:float ->
  addr ->
  Protocol.request ->
  (string, retry_error) result
(** One logical request with retries, answered as the raw payload
    bytes (for byte-identity harnesses): each attempt opens a fresh
    connection (no [connect]-level retries — refusals feed the backoff
    loop), sends the request's payload — rendered once, so every
    attempt is byte-identical and lands on the same journal digest
    (a server that already answered a previous attempt replies from
    its replayed-response table instead of re-executing) — and reads
    one response. [retry_recoverable] additionally retries well-formed
    responses whose [error] document is marked recoverable (admission
    sheds: [overloaded], [too_many_connections], [queue_timeout]) —
    off by default since re-running a solve costs server work. An
    unparseable payload is returned as [Ok] untouched (only transport
    errors and, with [retry_recoverable], well-formed recoverable
    errors consume the budget); the caller decides whether garbage
    bytes warrant another logical attempt. [policy] defaults to 5
    attempts, 20 ms base delay, 500 ms cap, seed 0. *)

