(** Crash-only process supervision for [sta_serve supervise].

    {!run} forks the serving child and waits. The state machine:

    - child exits 0 (graceful drain) → [Clean], no respawn;
    - child dies abnormally (non-zero exit, signal, watchdog
      self-restart) → respawn after a capped exponential backoff
      ([base_backoff_s] doubling up to [max_backoff_s]);
    - a child that survived at least [healthy_after_s] resets the
      consecutive-crash counter, so rare crashes restart forever while
      a crash loop trips the budget;
    - more than [crash_budget] consecutive fast crashes → [Gave_up],
      because a child that can never come up (bad flags, unbindable
      address) must become an operator page, not a restart storm.

    SIGTERM/SIGINT to the supervisor are forwarded to the child; when
    the child then exits the supervisor returns [Clean] without
    respawning, whatever the exit status — shutdown is not a crash.

    The supervisor stays single-threaded and holds no daemon state, so
    the fork is safe and each child rebuilds everything (engine,
    sockets, journal replay, cache scrub) from scratch — the
    crash-only path and the cold-start path are the same path.

    [pid_file], when set, receives the current child pid at every
    spawn, written atomically so a reader never sees a partial pid —
    crash drills and init systems read it to SIGKILL or
    observe the serving process. [on_spawn] is the in-process hook
    with the same information. *)

type config = {
  base_backoff_s : float;  (** first-restart delay (default 0.2 s) *)
  max_backoff_s : float;  (** backoff cap (default 10 s) *)
  healthy_after_s : float;
      (** uptime that resets the crash counter (default 30 s) *)
  crash_budget : int;
      (** max consecutive fast crashes before giving up (default 5) *)
  pid_file : string option;  (** child pid written here at each spawn *)
  on_spawn : (pid:int -> restarts:int -> unit) option;
}

type outcome =
  | Clean of { restarts : int }  (** graceful exit; [restarts] respawns *)
  | Gave_up of { restarts : int; consecutive : int }
      (** crash-loop budget exhausted *)

val outcome_to_string : outcome -> string

val run : ?config:config -> (restarts:int -> unit) -> outcome
(** [run child] forks and supervises [child ~restarts] (the serving
    loop; [restarts] says how many respawns preceded this incarnation,
    surfaced as the [server.restarts] metric). Must be called from a
    single-threaded process — it forks without exec. Blocks until
    clean shutdown or give-up. *)
