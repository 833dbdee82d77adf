(* serve — an in-process [Server.Daemon] on a Unix socket under
   .ledger/, with the engine the daemon defaults to (the fast preset),
   the write-ahead journal on and a fresh disk cache. A closed loop,
   since STA callers wait for each answer, of one client: 60% gamma /
   40% delay (SGDP or WLS5) requests, 90% drawn from a hot set of 24
   alignments warmed in the set-up and 10% at fresh seeded alignments.
   Every request carries a unique id, so the journal's dedup table
   never answers one. One op is one request.

   The mix is an assumption: no STA caller's traffic has been recorded,
   so the hot share (and with it the cache hit ratio) and the kind
   shares are not verified. serve does not judge a change whose effect
   depends on the hit ratio, such as one to the cache, until real
   traffic sets the mix.

   One client, not two: the daemon runs every thread on one domain, so
   a second client adds no throughput, only hand-offs of the runtime
   lock, and those made throughput and median latency swing by 13-23%
   between identical runs (one client: 4%). *)

open Workload

let nominal_rate = 440.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  ignore
    (List.fold_left
       (fun acc part ->
         let dir = if acc = "" then part else Filename.concat acc part in
         (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
         dir)
       "" (String.split_on_char '/' path))

(* Aggressor start times over the Table-1 alignment window. *)
let window_lo_ps, window_ps =
  let s = Noise.Scenario.config_i in
  ((s.victim_t0 +. s.window_offset -. (s.window /. 2.0)) *. 1e12, s.window *. 1e12)

let config_of i = if i land 1 = 0 then "i" else "ii"

let query ~config ~tau_ps = function
  | `Gamma -> Server.Protocol.Gamma { config; tau = tau_ps *. 1e-12; ladder = None }
  | `Delay technique -> Server.Protocol.Delay { config; tau = tau_ps *. 1e-12; technique }

(* The hot alignments: an even grid over the window, shifted by a
   seeded fraction of its step, alternating Config I and II. *)
let hot_set cfg =
  let n = if cfg.toy then 4 else 24 in
  let shift = Random.State.float (Measure.rng cfg.seed 5000) 1.0 in
  Array.init n (fun i ->
      (config_of i, window_lo_ps +. (window_ps *. (float_of_int i +. shift) /. float_of_int n)))

let kinds = [| `Gamma; `Delay "SGDP"; `Delay "WLS5" |]

(* Request [i]. Each run of ten holds six gamma and four delay
   requests in seeded order, one of them at a fresh alignment; the
   fresh one cycles through gamma on Config I, delay on Config I, gamma
   on Config II and delay on Config II, and fresh alignments follow a
   golden-ratio sequence over the window from a seeded start, so every
   stretch of requests carries the same mix. *)
let request cfg hot i =
  let ten = i / 10 and pos = i mod 10 in
  let rng = Measure.rng cfg.seed (6000 + ten) in
  let gamma = Measure.shuffle rng (Array.init 10 (fun j -> j < 6)) in
  let fresh_is_gamma = ten mod 2 = 0 in
  let slots = List.filter (fun j -> gamma.(j) = fresh_is_gamma) (List.init 10 Fun.id) in
  let fresh = pos = List.nth slots (Random.State.int rng (List.length slots)) in
  let rng = Measure.rng cfg.seed (-1 - i) in
  let kind = if gamma.(pos) then `Gamma else `Delay (if Random.State.bool rng then "SGDP" else "WLS5") in
  let config, tau_ps =
    if fresh then
      let start = Random.State.float (Measure.rng cfg.seed 5001) 1.0 in
      let u = Float.rem (start +. (float_of_int ten *. 0.6180339887498949)) 1.0 in
      (config_of (ten / 2), window_lo_ps +. (u *. window_ps))
    else hot.(Random.State.int rng (Array.length hot))
  in
  (fresh, { Server.Protocol.id = 1_000_000 + i; query = query ~config ~tau_ps kind; deadline_ms = None })

type daemon = {
  d : Server.Daemon.t;
  dir : string;
  addr : Server.Client.addr;
  engine : Runtime.Engine.t;
  cache : Runtime.Cache.t;
  hot_queries : Server.Protocol.query list;
}

let counter d name =
  Option.value (List.assoc_opt name (Runtime.Metrics.counters (Server.Daemon.metrics d.d))) ~default:0

let stop d =
  Server.Daemon.stop d.d;
  rm_rf d.dir

(* What the daemon sees: the request rendered, sent and parsed back. *)
let as_parsed (r : Server.Protocol.request) =
  match Server.Protocol.parse_request (Server.Json.to_string (Server.Protocol.request_to_json r)) with
  | Ok r -> r
  | Error _ -> failwith "ledger: generated request does not parse"

type answer = { req : Server.Protocol.request; fresh : bool; rtt : float; payload : (string, string) result }

let run cfg d () =
  let traced = !Trace.enabled in
  let hot = hot_set cfg in
  let per_block = if cfg.toy then 5 else 150 in
  let n_blocks = if cfg.toy then 2 else blocks_for cfg ~rate:nominal_rate ~per_block in
  let base =
    List.map
      (fun n -> (n, counter d n))
      [
        "server.batches"; "server.journal_appended"; "server.journal_deduped"; "server.latency_ms_sum";
        "server.latency_ms_count"; "server.executed"; "server.exec_errors";
      ]
  in
  let h0 = Runtime.Cache.hits d.cache and m0 = Runtime.Cache.misses d.cache in
  let b0 = Runtime.Cache.bytes_written d.cache in
  let conn = Server.Client.connect d.addr in
  let answers = ref [] in
  let op b i =
    let fresh, req = request cfg hot ((b * per_block) + i) in
    let payload, rtt = Measure.time (fun () -> Trace.span "server.call" (fun () -> Server.Client.call_raw conn req)) in
    answers := { req; fresh; rtt; payload } :: !answers
  in
  let p = start_phase () in
  let latencies, blocks = run_blocks ~name:"serve" ~n_blocks ~per_block op in
  let t_end = Measure.now () in
  let peak_rss_mb = Measure.peak_rss_mb () in
  Server.Client.close conn;
  let all = Array.of_list (List.rev !answers) in
  let ops = Array.length all in
  let counts = List.map (fun (n, v) -> (n, counter d n - v)) base in
  let layers = if traced then span_layers ~t_lo:p.t_start ~t_hi:t_end @ counter_layers p ~ops else [] in
  let cache =
    cache_layers ~ops ~hits:(Runtime.Cache.hits d.cache - h0) ~misses:(Runtime.Cache.misses d.cache - m0)
      ~entries:(float_of_int (Runtime.Cache.length d.cache))
      ~bytes_written:(Runtime.Cache.bytes_written d.cache - b0)
  in
  stop d;
  (* Every answer must be byte-identical to a direct [Protocol.execute]
     rendering on a fresh engine of the same preset. *)
  let fresh_engine = Runtime.Engine.with_cache Runtime.Engine.fast (Runtime.Cache.create ()) in
  let expected = Hashtbl.create 512 in
  let expect (r : Server.Protocol.request) =
    let key = Server.Json.to_string (Server.Protocol.request_to_json { r with id = 0 }) in
    let result =
      match Hashtbl.find_opt expected key with
      | Some res -> res
      | None ->
          let res = Server.Protocol.execute ~engine:fresh_engine r.query in
          Hashtbl.add expected key res;
          res
    in
    Server.Json.to_string (Server.Protocol.response ~id:r.id result)
  in
  let transport = ref 0 and errors = ref 0 and mismatches = ref 0 in
  Array.iter
    (fun a ->
      match a.payload with
      | Error _ -> incr transport
      | Ok bytes ->
          if bytes <> expect (as_parsed a.req) then incr mismatches;
          (match Server.Json.parse bytes with
          | Ok doc when Server.Json.member "error" doc = None -> ()
          | _ -> incr errors))
    all;
  let digest = Measure.digest () in
  Array.iter
    (fun a -> Measure.add_str digest (match a.payload with Ok b -> b | Error _ -> "transport error"))
    all;
  let rtts pick = Array.of_list (List.filter_map (fun a -> if pick a then Some a.rtt else None) (Array.to_list all)) in
  let rtt_mean_ms = Measure.mean (rtts (fun _ -> true)) *. 1e3 in
  let handle_ms_mean =
    float_of_int (List.assoc "server.latency_ms_sum" counts)
    /. float_of_int (Int.max 1 (List.assoc "server.latency_ms_count" counts))
  in
  let notes, probe_layers =
    if not traced then ([], [])
    else begin
      (* Layer probes after the run: direct execution on the warm
         engine, request parsing and response rendering. *)
      List.iter
        (fun q ->
          for _ = 1 to 3 do
            ignore (Trace.span "server.execute" (fun () -> Server.Protocol.execute ~engine:d.engine q))
          done)
        d.hot_queries;
      Array.iter
        (fun a ->
          let text = Server.Json.to_string (Server.Protocol.request_to_json a.req) in
          ignore (Trace.span "server.parse" (fun () -> Server.Protocol.parse_request text));
          match a.payload with
          | Ok bytes -> (
              match Server.Json.parse bytes with
              | Ok doc -> ignore (Trace.span "server.render" (fun () -> Server.Json.to_string doc))
              | Error _ -> ())
          | Error _ -> ())
        all;
      let spans = Trace.spans () in
      let d name = Trace.durations name spans in
      ( [
          p50_note "server.rtt_hit_ms_p50" "ms" 1e3 (rtts (fun a -> not a.fresh));
          p50_note "server.rtt_miss_ms_p50" "ms" 1e3 (rtts (fun a -> a.fresh));
          Printf.sprintf "server.handle_ms_mean %.4g (daemon histogram, whole-ms sums)" handle_ms_mean;
          Printf.sprintf "server.transport_ms_mean %.4g" (rtt_mean_ms -. handle_ms_mean);
          p50_note "server.execute_hit_us_p50" "us" 1e6 (d "server.execute");
          p50_note "server.parse_us_p50" "us" 1e6 (d "server.parse");
          p50_note "server.render_us_p50" "us" 1e6 (d "server.render");
        ],
        [
          ("server.transport_share", Float.max 0.0 (rtt_mean_ms -. handle_ms_mean) /. rtt_mean_ms);
          ( "server.reqs_per_batch",
            float_of_int (List.assoc "server.executed" counts + List.assoc "server.exec_errors" counts)
            /. float_of_int (Int.max 1 (List.assoc "server.batches" counts)) );
          ( "server.journal_appended_per_op",
            float_of_int (List.assoc "server.journal_appended" counts) /. float_of_int (Int.max 1 ops) );
          ("server.journal_deduped", float_of_int (List.assoc "server.journal_deduped" counts));
        ] )
    end
  in
  {
    latencies;
    blocks;
    elapsed = t_end -. p.t_start;
    failed = !errors + !transport;
    checks =
      [
        ("serve.byte_identical_to_direct_execute", !mismatches = 0);
        ("serve.no_transport_errors", !transport = 0);
        ("serve.journal_never_dedups", List.assoc "server.journal_deduped" counts = 0);
      ];
    digest = Measure.hex digest;
    notes =
      Printf.sprintf "requests %d (%d fresh), distinct queries %d, mismatches %d, transport errors %d, error responses %d"
        ops (Array.length (rtts (fun a -> a.fresh))) (Hashtbl.length expected) !mismatches !transport !errors
      :: notes;
    layer = (if traced then layers @ cache @ probe_layers else []);
    peak_rss_mb;
  }

(* Set-up: start the daemon on a fresh directory and warm its cache
   with the hot set (each hot alignment as gamma, SGDP delay and WLS5
   delay), executed directly on the daemon's engine. *)
let prepare =
  let instance = ref 0 in
  fun cfg ->
    incr instance;
    let dir = Printf.sprintf ".ledger/serve-%d-%d" (Unix.getpid ()) !instance in
    rm_rf dir;
    mkdir_p dir;
    let cache = Runtime.Cache.create ~disk_dir:(Filename.concat dir "cache") () in
    let engine = Runtime.Engine.with_cache Runtime.Engine.fast cache in
    let addr = Server.Client.Unix_path (Filename.concat dir "sock") in
    let daemon =
      Server.Daemon.start
        {
          Server.Daemon.default_config with
          addr;
          engine;
          journal_dir = Some (Filename.concat dir "journal");
        }
    in
    let hot_queries =
      List.concat_map
        (fun (config, tau_ps) ->
          List.map
            (fun kind ->
              (as_parsed { Server.Protocol.id = 0; query = query ~config ~tau_ps kind; deadline_ms = None })
                .query)
            (Array.to_list kinds))
        (Array.to_list (hot_set cfg))
    in
    List.iter (fun q -> ignore (Server.Protocol.execute ~engine q)) hot_queries;
    let d = { d = daemon; dir; addr; engine; cache; hot_queries } in
    { run = run cfg d; discard = (fun () -> stop d) }

let workload = { name = "serve"; unit_ = "request"; prepare }
