(* sta_serve: STA-as-a-service daemon.

   Subcommands:
     serve      (default) run the daemon until SIGINT/SIGTERM
     supervise  run the daemon under a restarting supervisor
     ping       liveness round-trip against a running daemon *)

open Cmdliner

let default_socket = "/tmp/sta_serve.sock"

let addr_of socket port =
  match port with
  | Some p -> Server.Client.Tcp ("127.0.0.1", p)
  | None -> Server.Client.Unix_path socket

let socket_arg =
  Arg.(value & opt string default_socket
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to serve (or connect to). Ignored \
                 when $(b,--port) is given.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Serve the wire protocol over loopback TCP on $(docv) \
                 instead of a Unix socket.")

(* ------------------------------------------------------------------ *)
(* serve / supervise shared options *)

type serve_opts = {
  socket : string;
  port : int option;
  http_port : int option;
  queue_depth : int;
  queue_timeout : float option;
  max_conns : int;
  read_timeout : float option;
  write_timeout : float option;
  max_frames : int option;
  journal_dir : string option;
  scrub : float option;
  watchdog : float option;
  inject_net : Server.Netfault.kind Faultplan.plan option;
  spec : Runtime.Cli.spec;
}

let serve_opts_term =
  let http_port =
    Arg.(value & opt (some int) None
         & info [ "http-port" ] ~docv:"PORT"
             ~doc:"Expose $(b,GET /metrics) (Prometheus text format) \
                   and $(b,GET /health) over loopback HTTP on $(docv).")
  in
  let queue_depth =
    Arg.(value & opt int 64
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission queue bound. Requests arriving while $(docv) \
                   are already queued are shed immediately with a typed \
                   $(b,overloaded) error instead of growing memory.")
  in
  let queue_timeout =
    Arg.(value & opt (some float) None
         & info [ "queue-timeout" ] ~docv:"MS"
             ~doc:"Shed requests that waited longer than $(docv) ms in \
                   the queue with a typed $(b,queue_timeout) error \
                   instead of computing an answer nobody is waiting \
                   for.")
  in
  let max_conns =
    Arg.(value & opt int 256
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent protocol-connection budget. Connections \
                   past $(docv) are answered one typed \
                   $(b,too_many_connections) frame and closed.")
  in
  let read_timeout =
    Arg.(value & opt (some float) None
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-connection read deadline (protocol and HTTP). An \
                   idle connection past $(docv) is reclaimed; a peer \
                   that stalls mid-frame (slowloris) is answered \
                   $(b,timeout) and dropped.")
  in
  let write_timeout =
    Arg.(value & opt (some float) None
         & info [ "write-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-connection write deadline: a peer that stops \
                   draining its socket for $(docv) is dropped.")
  in
  let max_frames =
    Arg.(value & opt (some int) None
         & info [ "max-frames" ] ~docv:"N"
             ~doc:"Frame budget per connection; answered \
                   $(b,frame_limit) when exhausted so load balancers \
                   recycle connections.")
  in
  let journal_dir =
    Arg.(value & opt (some string) None
         & info [ "journal-dir" ] ~docv:"DIR"
             ~doc:"Write-ahead request journal: solve requests are \
                   journaled before execution and retired after their \
                   response is flushed; on restart the unretired set \
                   is replayed so acknowledged work is never lost.")
  in
  let scrub =
    Arg.(value & opt (some float) None
         & info [ "scrub" ] ~docv:"SECONDS"
             ~doc:"Bounded-time startup scrub of the disk cache: \
                   CRC-validate entries newest-first for up to \
                   $(docv), unlinking corrupt entries and tmp \
                   leftovers from a previous crash.")
  in
  let watchdog =
    Arg.(value & opt (some float) None
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Heartbeat watchdog: if the batcher makes no \
                   progress for $(docv) while work is queued, the \
                   daemon exits 70 so a supervisor can respawn it.")
  in
  let inject_net =
    let c = Runtime.Cli.fault_conv Server.Netfault.injector in
    Arg.(value & opt (some c) None
         & info [ "inject-net-faults" ] ~docv:"SPEC"
             ~doc:"Deterministic network fault injection for chaos \
                   testing: $(b,[KIND:])($(b,nth:N) | \
                   $(b,RATE[@SEED])) with KIND one of \
                   torn|stall|drop|corrupt (no KIND rotates all \
                   four). Examples: 0.05@7, drop:nth:3, stall:0.1.")
  in
  let mk socket port http_port queue_depth queue_timeout max_conns
      read_timeout write_timeout max_frames journal_dir scrub watchdog
      inject_net spec =
    {
      socket;
      port;
      http_port;
      queue_depth;
      queue_timeout;
      max_conns;
      read_timeout;
      write_timeout;
      max_frames;
      journal_dir;
      scrub;
      watchdog;
      inject_net;
      spec;
    }
  in
  Term.(
    const mk $ socket_arg $ port_arg $ http_port $ queue_depth
    $ queue_timeout $ max_conns $ read_timeout $ write_timeout $ max_frames
    $ journal_dir $ scrub $ watchdog $ inject_net
    $ Runtime.Cli.spec_term ~default_engine:"fast" ())

(* Everything that builds daemon state (fault arming, engine and its
   domain pool, sockets) runs here — in the serving process itself.
   Under [supervise] this is the forked child, so each incarnation
   rebuilds from scratch and the crash-recovery path is the cold-start
   path. *)
let run_serve ~restarts (o : serve_opts) =
  Runtime.Cli.arm_faults o.spec;
  Option.iter Server.Netfault.arm o.inject_net;
  let engine = Runtime.Cli.engine_of_spec o.spec in
  let addr = addr_of o.socket o.port in
  let config =
    {
      Server.Daemon.addr;
      http_port = o.http_port;
      engine;
      queue_depth = o.queue_depth;
      (* The engine's batch width doubles as the merge bound: how
         many single-case solves one queue drain hands to the pool. *)
      max_batch = Runtime.Engine.batch engine;
      queue_timeout_ms = o.queue_timeout;
      (* --deadline is both the engine's per-solve budget and the
         default per-request budget for requests that carry none. *)
      default_deadline_ms = o.spec.Runtime.Cli.deadline_ms;
      max_conns = o.max_conns;
      read_timeout_s = o.read_timeout;
      write_timeout_s = o.write_timeout;
      max_frames_per_conn = o.max_frames;
      journal_dir = o.journal_dir;
      scrub_budget_s = o.scrub;
      watchdog_s = o.watchdog;
      restarts;
      on_wedged = None;
    }
  in
  Printf.printf
    "sta_serve %s: engine %s, queue depth %d, listening on %s%s%s\n%!"
    Server.Protocol.version
    (Runtime.Engine.name engine)
    o.queue_depth
    (Server.Client.addr_to_string addr)
    (match o.http_port with
    | Some p -> Printf.sprintf ", metrics on http://127.0.0.1:%d/metrics" p
    | None -> "")
    (if restarts > 0 then Printf.sprintf " (restart %d)" restarts else "");
  Server.Daemon.run config;
  Printf.printf "sta_serve: drained, bye\n%!"

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the STA daemon (default command)")
    Term.(const (fun o -> run_serve ~restarts:0 o) $ serve_opts_term)

(* ------------------------------------------------------------------ *)
(* supervise *)

let supervise_cmd =
  let pid_file =
    Arg.(value & opt (some string) None
         & info [ "pid-file" ] ~docv:"PATH"
             ~doc:"Write the serving child's pid to $(docv) at every \
                   spawn — crash drills and init systems read it to \
                   signal or observe the serving process.")
  in
  let base_backoff =
    Arg.(value & opt float 0.2
         & info [ "base-backoff" ] ~docv:"SECONDS"
             ~doc:"Delay before the first restart; doubles per \
                   consecutive fast crash.")
  in
  let max_backoff =
    Arg.(value & opt float 10.0
         & info [ "max-backoff" ] ~docv:"SECONDS" ~doc:"Backoff cap.")
  in
  let healthy_after =
    Arg.(value & opt float 30.0
         & info [ "healthy-after" ] ~docv:"SECONDS"
             ~doc:"Uptime after which the consecutive-crash counter \
                   resets — rare crashes restart forever, a crash \
                   loop trips the budget.")
  in
  let crash_budget =
    Arg.(value & opt int 5
         & info [ "crash-budget" ] ~docv:"N"
             ~doc:"Give up after $(docv) consecutive fast crashes \
                   (exit 1) instead of restart-storming.")
  in
  let run o pid_file base_backoff max_backoff healthy_after crash_budget =
    let config =
      {
        Server.Supervisor.base_backoff_s = base_backoff;
        max_backoff_s = max_backoff;
        healthy_after_s = healthy_after;
        crash_budget;
        pid_file;
        on_spawn = None;
      }
    in
    let outcome =
      Server.Supervisor.run ~config (fun ~restarts -> run_serve ~restarts o)
    in
    Printf.printf "sta_serve supervise: %s\n%!"
      (Server.Supervisor.outcome_to_string outcome);
    match outcome with
    | Server.Supervisor.Clean _ -> ()
    | Server.Supervisor.Gave_up _ -> exit 1
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:"Run the STA daemon under a restarting supervisor: fork \
             the serving child, respawn on crash with capped \
             exponential backoff, give up on a crash loop. SIGTERM \
             drains the child and exits cleanly.")
    Term.(
      const run $ serve_opts_term $ pid_file $ base_backoff $ max_backoff
      $ healthy_after $ crash_budget)

(* ------------------------------------------------------------------ *)
(* ping *)

let ping_cmd =
  let retries =
    Arg.(value & opt int 20
         & info [ "retries" ] ~docv:"N"
             ~doc:"Connection attempts, 50 ms apart, before giving up.")
  in
  let run socket port retries =
    let addr = addr_of socket port in
    match Server.Client.connect ~retries addr with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "sta_serve ping: cannot connect to %s: %s\n"
          (Server.Client.addr_to_string addr)
          (Unix.error_message e);
        exit 1
    | client -> (
        let result = Server.Client.ping client in
        Server.Client.close client;
        match result with
        | Ok doc ->
            print_endline (Server.Json.to_string doc)
        | Error msg ->
            Printf.eprintf "sta_serve ping: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Liveness round-trip against a running daemon")
    Term.(const run $ socket_arg $ port_arg $ retries)

let () =
  let info =
    Cmd.info "sta_serve" ~version:Server.Protocol.version
      ~doc:"STA-as-a-service: timing and noise queries over a socket"
  in
  let default =
    Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))
  in
  exit (Cmd.eval (Cmd.group ~default info [ serve_cmd; supervise_cmd; ping_cmd ]))
