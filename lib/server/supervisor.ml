(* Crash-only process supervision: fork the serving child, wait,
   restart on abnormal exit. The parent stays single-threaded (no
   daemon state, no sockets), so the fork is safe and the supervisor
   itself has essentially nothing in it that can crash.

   Restart policy: capped exponential backoff over consecutive
   short-lived children, a crash-loop budget so a child that can never
   come up (bad flags, port taken by someone else) turns into a clean
   give-up instead of an infinite restart storm, and a healthy-uptime
   threshold past which the crash counter resets — one crash a day
   restarts forever, ten crashes a minute stops.

   SIGTERM/SIGINT to the supervisor forwards to the child, which
   drains gracefully and exits 0; the supervisor then exits cleanly
   without restarting. *)

type config = {
  base_backoff_s : float;
  max_backoff_s : float;
  healthy_after_s : float;
  crash_budget : int;
  pid_file : string option;
  on_spawn : (pid:int -> restarts:int -> unit) option;
}

let default_config =
  {
    base_backoff_s = 0.2;
    max_backoff_s = 10.0;
    healthy_after_s = 30.0;
    crash_budget = 5;
    pid_file = None;
    on_spawn = None;
  }

type outcome =
  | Clean of { restarts : int }
  | Gave_up of { restarts : int; consecutive : int }

let outcome_to_string = function
  | Clean { restarts } ->
      Printf.sprintf "clean exit after %d restart(s)" restarts
  | Gave_up { restarts; consecutive } ->
      Printf.sprintf
        "crash-loop budget exhausted: %d consecutive fast crashes (%d \
         restart(s) total)"
        consecutive restarts

let write_pid_file path pid =
  try Runtime.Record.write_atomic path (Printf.sprintf "%d\n" pid)
  with Sys_error _ -> ()

let remove_pid_file = function
  | None -> ()
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

(* Sleep in small slices so a forwarded SIGTERM cuts the backoff short
   instead of delaying shutdown by up to max_backoff_s. *)
let backoff_sleep terminating delay =
  let deadline = Unix.gettimeofday () +. delay in
  while (not (Atomic.get terminating)) && Unix.gettimeofday () < deadline do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run ?(config = default_config) child =
  let terminating = Atomic.make false in
  let child_pid = Atomic.make 0 in
  let forward signo =
    Atomic.set terminating true;
    let pid = Atomic.get child_pid in
    if pid > 0 then try Unix.kill pid signo with Unix.Unix_error _ -> ()
  in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle forward) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle forward) in
  let restore () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    remove_pid_file config.pid_file
  in
  let rec loop restarts consecutive =
    if Atomic.get terminating then Clean { restarts }
    else
      match Unix.fork () with
      | 0 -> (
          (* Serving child: inherit nothing from the supervisor but the
             fds of the calling process. The child installs its own
             signal handling (Daemon.run). *)
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigint old_int;
          try
            child ~restarts;
            Stdlib.exit 0
          with e ->
            Printf.eprintf "sta_serve child: %s\n%!" (Printexc.to_string e);
            Stdlib.exit 1)
      | pid -> (
          Atomic.set child_pid pid;
          Option.iter (fun p -> write_pid_file p pid) config.pid_file;
          (match config.on_spawn with
          | Some f -> f ~pid ~restarts
          | None -> ());
          let started = Unix.gettimeofday () in
          let status = wait_child pid in
          Atomic.set child_pid 0;
          let uptime = Unix.gettimeofday () -. started in
          match status with
          | Unix.WEXITED 0 -> Clean { restarts }
          | _ when Atomic.get terminating ->
              (* We asked it to stop; however it died, do not respawn. *)
              Clean { restarts }
          | _ ->
              let consecutive =
                if uptime >= config.healthy_after_s then 1 else consecutive + 1
              in
              if consecutive > config.crash_budget then
                Gave_up { restarts; consecutive }
              else begin
                let delay =
                  Float.min config.max_backoff_s
                    (config.base_backoff_s
                    *. (2.0 ** float_of_int (consecutive - 1)))
                in
                backoff_sleep terminating delay;
                loop (restarts + 1) consecutive
              end)
  in
  Fun.protect ~finally:restore (fun () -> loop 0 0)
