(* The sta_serve daemon: JSON codec, wire protocol, bounded admission
   queue, Prometheus exposition, batcher, and a socket-level
   end-to-end exercise with concurrent clients. *)

open Helpers

let json = Alcotest.testable (Fmt.of_to_string Server.Json.to_string) ( = )

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let parse_ok s =
  match Server.Json.parse s with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let open Server.Json in
  let doc =
    Obj
      [
        ("null", Null);
        ("flag", Bool true);
        ("n", Num 42.0);
        ("x", Num 1.25e-12);
        ("s", Str "a\"b\\c\n\t");
        ("arr", Arr [ Num 1.0; Str "two"; Bool false; Null ]);
        ("nested", Obj [ ("k", Arr [ Obj [] ]) ]);
      ]
  in
  Alcotest.check json "print/parse round-trip" doc
    (parse_ok (to_string doc));
  (* printing is deterministic *)
  Alcotest.(check string)
    "stable bytes" (to_string doc)
    (to_string (parse_ok (to_string doc)))

let test_json_numbers () =
  let open Server.Json in
  Alcotest.(check string) "integral" "42" (to_string (Num 42.0));
  Alcotest.(check string) "negative" "-7" (to_string (Num (-7.0)));
  Alcotest.(check string) "zero" "0" (to_string (Num 0.0));
  Alcotest.(check string) "nan is null" "null" (to_string (Num Float.nan));
  (* round-trip through the printer never loses the value *)
  List.iter
    (fun v ->
      match parse_ok (to_string (Num v)) with
      | Num v' ->
          check_true (Printf.sprintf "%.17g survives" v) (v = v')
      | _ -> Alcotest.fail "number did not parse back as a number")
    [ 1.25e-12; 0.1; 3.141592653589793; 1e300; -2.5e-308; 123456789.5 ]

let test_json_escapes () =
  (match parse_ok {|"Aé€"|} with
  | Server.Json.Str s ->
      Alcotest.(check string) "unicode escapes" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "expected a string");
  (match parse_ok {|"😀"|} with
  | Server.Json.Str s ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  check_true "lone surrogate rejected"
    (Result.is_error (Server.Json.parse {|"\ud83d"|}))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "%S rejected" s)
        (Result.is_error (Server.Json.parse s)))
    bad;
  (* depth bomb must error, not overflow the stack *)
  let deep = String.concat "" (List.init 500 (fun _ -> "[")) in
  check_true "depth limit" (Result.is_error (Server.Json.parse deep))

(* ------------------------------------------------------------------ *)
(* Workqueue                                                           *)

let test_workqueue_bound () =
  let q = Server.Workqueue.create ~depth:2 in
  Alcotest.(check int) "depth" 2 (Server.Workqueue.depth q);
  check_true "push 1" (Server.Workqueue.try_push q 1 = Ok ());
  check_true "push 2" (Server.Workqueue.try_push q 2 = Ok ());
  check_true "push 3 shed" (Server.Workqueue.try_push q 3 = Error `Overloaded);
  Alcotest.(check int) "length" 2 (Server.Workqueue.length q);
  check_true "pop 1" (Server.Workqueue.pop q = Some 1);
  check_true "freed a slot" (Server.Workqueue.try_push q 4 = Ok ());
  match Server.Workqueue.create ~depth:0 with
  | exception Invalid_argument _ -> ()
  | (_ : int Server.Workqueue.t) -> Alcotest.fail "depth 0 accepted"

let test_workqueue_close_drains () =
  let q = Server.Workqueue.create ~depth:8 in
  check_true "push a" (Server.Workqueue.try_push q "a" = Ok ());
  check_true "push b" (Server.Workqueue.try_push q "b" = Ok ());
  Server.Workqueue.close q;
  check_true "closed refuses" (Server.Workqueue.try_push q "c" = Error `Closed);
  (* items admitted before the close are still delivered *)
  check_true "pop a" (Server.Workqueue.pop q = Some "a");
  check_true "pop b" (Server.Workqueue.pop q = Some "b");
  check_true "then exhausted" (Server.Workqueue.pop q = None);
  check_true "still closed" (Server.Workqueue.try_push q "d" = Error `Closed)

let test_workqueue_unblocks_consumer () =
  let q = Server.Workqueue.create ~depth:4 in
  let got = ref (Some 0) in
  let consumer = Thread.create (fun () -> got := Server.Workqueue.pop q) () in
  Thread.delay 0.05;
  Server.Workqueue.close q;
  Thread.join consumer;
  check_true "blocked pop released by close" (!got = None)

(* ------------------------------------------------------------------ *)
(* Protocol: parsing, classing, framing                                *)

let parse_req s =
  match Server.Protocol.parse_request s with
  | Ok r -> r
  | Error (Server.Protocol.Bad_request msg) ->
      Alcotest.failf "parse_request %S: %s" s msg
  | Error (Server.Protocol.Version_mismatch { got; _ }) ->
      Alcotest.failf "parse_request %S: version mismatch (%s)" s got

let test_protocol_parse () =
  let r =
    parse_req
      {|{"id":7,"op":"delay","config":"i","tau_ps":60,"deadline_ms":250}|}
  in
  Alcotest.(check int) "id" 7 r.Server.Protocol.id;
  check_true "deadline" (r.Server.Protocol.deadline_ms = Some 250.0);
  (match r.Server.Protocol.query with
  | Server.Protocol.Delay { config; tau; technique } ->
      Alcotest.(check string) "config" "i" config;
      Alcotest.(check string) "default technique" "SGDP" technique;
      check_true "tau in seconds" (Float.abs (tau -. 60e-12) < 1e-18)
  | _ -> Alcotest.fail "expected a delay query");
  let bad =
    [
      {|{"op":"delay","config":"i"}|} (* missing tau *);
      {|{"id":1,"op":"warp"}|} (* unknown op *);
      {|{"id":1,"op":"delay","config":"i","tau_ps":-5}|};
      {|{"id":1,"op":"table1","config":"i","cases":100000}|} (* cap *);
      {|{"id":1,"op":"delay","config":"i","tau_ps":60,"deadline_ms":0}|};
      {|[1,2]|};
    ]
  in
  List.iter
    (fun s ->
      check_true
        (Printf.sprintf "%s rejected" s)
        (Result.is_error (Server.Protocol.parse_request s)))
    bad

let test_protocol_request_roundtrip () =
  let reqs =
    [
      { Server.Protocol.id = 1; query = Server.Protocol.Ping;
        deadline_ms = None };
      { Server.Protocol.id = 2;
        query =
          Server.Protocol.Delay
            { config = "ii"; tau = 80e-12; technique = "SGDP" };
        deadline_ms = Some 100.0 };
      { Server.Protocol.id = 3;
        query =
          Server.Protocol.Gamma
            { config = "i"; tau = 40e-12; ladder = Some [ "SGDP"; "P1" ] };
        deadline_ms = None };
      { Server.Protocol.id = 4;
        query =
          Server.Protocol.Table1
            { config = "i"; cases = 5; techniques = Some [ "SGDP" ];
              samples = None; prune_tol_ps = 0.0 };
        deadline_ms = None };
      { Server.Protocol.id = 5;
        query =
          Server.Protocol.Montecarlo
            { config = "ii"; samples = 16; seed = 9; prune_tol_ps = 2.0 };
        deadline_ms = None };
    ]
  in
  List.iter
    (fun r ->
      let r' =
        parse_req (Server.Json.to_string (Server.Protocol.request_to_json r))
      in
      check_true "request round-trip" (r = r'))
    reqs

let test_protocol_version_gate () =
  (* The request_to_json envelope stamps the library version, and the
     round-trip above already proves stamped requests parse. Spot-check
     the field is really there. *)
  let doc =
    Server.Protocol.request_to_json
      { Server.Protocol.id = 9; query = Server.Protocol.Ping;
        deadline_ms = None }
  in
  check_true "requests carry the version"
    (Server.Json.member "version" doc
    = Some (Server.Json.Str Server.Protocol.version));
  (* Same major, any minor/patch: accepted. *)
  let ok_versions = [ Server.Protocol.version; "1.0.0"; "1.9.7"; "1" ] in
  List.iter
    (fun v ->
      let r =
        parse_req
          (Printf.sprintf {|{"id":3,"op":"ping","version":%S}|} v)
      in
      check_true (v ^ " accepted") (r.Server.Protocol.query = Server.Protocol.Ping))
    ok_versions;
  (* No version at all: accepted (pre-1.1 clients). *)
  ignore (parse_req {|{"id":3,"op":"ping"}|});
  (* Different major, junk, or non-string: typed rejection that echoes
     the id and never reads the op. *)
  let mismatched =
    [
      {|{"id":4,"op":"ping","version":"2.0.0"}|};
      {|{"id":4,"op":"ping","version":"0.9"}|};
      {|{"id":4,"op":"ping","version":"squid"}|};
      {|{"id":4,"op":"ping","version":7}|};
      {|{"id":4,"op":"warp","version":"2.0.0"}|} (* bad op, worse version *);
    ]
  in
  List.iter
    (fun s ->
      match Server.Protocol.parse_request s with
      | Error (Server.Protocol.Version_mismatch { id; _ }) ->
          Alcotest.(check int) "mismatch echoes id" 4 id
      | Error (Server.Protocol.Bad_request msg) ->
          Alcotest.failf "%s: bad_request (%s), wanted version_mismatch" s msg
      | Ok _ -> Alcotest.failf "%s accepted" s)
    mismatched;
  (* The rejection frame is typed and correlates with the request. *)
  let doc =
    Server.Protocol.parse_error_response
      (Server.Protocol.Version_mismatch { id = 4; got = "2.0.0" })
  in
  check_true "version_mismatch code"
    (match Server.Json.member "error" doc with
    | Some err ->
        Server.Json.member "code" err
        = Some (Server.Json.Str "version_mismatch")
    | None -> false);
  check_true "mismatch frame id"
    (Server.Json.member "id" doc = Some (Server.Json.Num 4.0));
  check_true "responses carry the version"
    (Server.Json.member "version"
       (Server.Protocol.response ~id:1 (Ok (Server.Json.Bool true)))
    = Some (Server.Json.Str Server.Protocol.version))

let test_protocol_klass () =
  let k q = Server.Protocol.klass q in
  check_true "ping inline" (k Server.Protocol.Ping = Server.Protocol.Inline);
  check_true "stats inline" (k Server.Protocol.Stats = Server.Protocol.Inline);
  (match
     k (Server.Protocol.Delay { config = "i"; tau = 1e-12; technique = "SGDP" })
   with
  | Server.Protocol.Single _ -> ()
  | _ -> Alcotest.fail "delay should batch");
  check_true "table1 is a sweep"
    (k
       (Server.Protocol.Table1
          { config = "i"; cases = 3; techniques = None; samples = None;
            prune_tol_ps = 0.0 })
    = Server.Protocol.Sweep)

let test_protocol_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let payloads = [ "{}"; String.make 70000 'x'; "" ] in
      List.iter (fun p -> Server.Protocol.write_frame a p) payloads;
      List.iter
        (fun p ->
          match Server.Protocol.read_frame b with
          | Ok got -> Alcotest.(check string) "frame round-trip" p got
          | Error _ -> Alcotest.fail "frame lost")
        payloads;
      (* clean close between frames reads as Eof *)
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      check_true "eof at boundary"
        (Server.Protocol.read_frame b = Error `Eof))

let test_protocol_frame_limit () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* a corrupt length prefix far past max_frame must be refused
         without allocating the claimed size *)
      let bogus = Bytes.create 4 in
      Bytes.set_int32_be bogus 0 0x7fff_ffffl;
      ignore (Unix.write a bogus 0 4);
      match Server.Protocol.read_frame b with
      | Error (`Err _) -> ()
      | Ok _ -> Alcotest.fail "oversized frame accepted"
      | Error `Eof -> Alcotest.fail "oversized frame read as eof"
      | Error (`Timeout _) -> Alcotest.fail "oversized frame read as timeout")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let test_prometheus_stable_names () =
  let m = Runtime.Metrics.create () in
  Runtime.Metrics.incr m "server.accepted";
  Runtime.Metrics.incr ~n:3 m "server.latency_ms_bucket{le=\"5\"}";
  Runtime.Metrics.incr ~n:4 m "server.latency_ms_bucket{le=\"+Inf\"}";
  Runtime.Metrics.incr ~n:4 m "server.latency_ms_count";
  Runtime.Metrics.incr ~n:9 m "spice.sims";
  Runtime.Metrics.add_time m "stage.table1" 1.5;
  let text = Runtime.Metrics.to_prometheus m in
  let lines = String.split_on_char '\n' text in
  let has l =
    check_true (Printf.sprintf "exposition contains %S" l) (List.mem l lines)
  in
  (* exact metric names and labels are a public contract: scrape
     configs and dashboards depend on them *)
  has "# TYPE sta_server_accepted gauge";
  has "sta_server_accepted 1";
  has "# TYPE sta_server_latency_ms_bucket counter";
  has "sta_server_latency_ms_bucket{le=\"5\"} 3";
  has "sta_server_latency_ms_bucket{le=\"+Inf\"} 4";
  has "# TYPE sta_server_latency_ms_count counter";
  has "sta_server_latency_ms_count 4";
  has "sta_spice_sims 9";
  has "# TYPE sta_stage_table1_seconds gauge";
  has "sta_stage_table1_seconds 1.500000";
  (* one TYPE line per family, even with many labelled series *)
  Runtime.Metrics.incr m "server.latency_ms_bucket{le=\"10\"}";
  let text = Runtime.Metrics.to_prometheus m in
  let type_lines =
    List.filter
      (fun l ->
        String.length l >= 6
        && String.sub l 0 6 = "# TYPE"
        && String.length l > 40
        && String.sub l 7 34 = "sta_server_latency_ms_bucket count")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "single TYPE per family" 1 (List.length type_lines)

(* ------------------------------------------------------------------ *)
(* Batcher                                                             *)

let test_batcher_queue_timeout () =
  let queue = Server.Workqueue.create ~depth:8 in
  let jobs =
    List.init 3 (fun i ->
        let job =
          Server.Batcher.Job.make
            { Server.Protocol.id = i; query = Server.Protocol.Ping;
              deadline_ms = None }
        in
        check_true "admitted" (Server.Workqueue.try_push queue job = Ok ());
        job)
  in
  Thread.delay 0.08;
  Server.Workqueue.close queue;
  let metrics = Runtime.Metrics.create () in
  (* every popped job waited ~80 ms against a 10 ms budget: all are
     answered with a typed queue_timeout instead of executing *)
  Server.Batcher.serve ~queue ~engine:Runtime.Engine.reference ~metrics
    ~queue_timeout_ms:10.0 ();
  List.iter
    (fun job ->
      let doc = Server.Batcher.Job.await job in
      match Server.Json.member "error" doc with
      | Some err -> (
          match Server.Json.member "code" err with
          | Some (Server.Json.Str "queue_timeout") -> ()
          | _ -> Alcotest.fail "expected code queue_timeout")
      | None -> Alcotest.fail "timed-out job reported success")
    jobs;
  check_true "counted"
    (List.assoc_opt "server.queue_timeouts" (Runtime.Metrics.counters metrics)
    = Some 3)

let test_batcher_fill_once () =
  let job =
    Server.Batcher.Job.make
      { Server.Protocol.id = 1; query = Server.Protocol.Ping;
        deadline_ms = None }
  in
  Server.Batcher.Job.fill job (Server.Json.Str "first");
  Server.Batcher.Job.fill job (Server.Json.Str "second");
  Alcotest.check json "first fill wins" (Server.Json.Str "first")
    (Server.Batcher.Job.await job)

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end over a Unix socket                                *)

let tmp_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sta_test_%d_%d.sock" (Unix.getpid ()) !n)

let daemon_config ?(queue_depth = 16) sock =
  {
    Server.Daemon.default_config with
    addr = Server.Client.Unix_path sock;
    engine =
      Runtime.Engine.with_cache Runtime.Engine.fast (Runtime.Cache.create ());
    queue_depth;
  }

let test_daemon_ping_and_identity () =
  let sock = tmp_sock () in
  let d = Server.Daemon.start (daemon_config sock) in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let c = Server.Client.connect (Server.Client.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          (match Server.Client.ping c with
          | Ok doc -> (
              match Server.Json.member "ok" doc with
              | Some ok ->
                  check_true "version"
                    (Server.Json.member "version" ok
                    = Some (Server.Json.Str Server.Protocol.version));
                  check_true "engine name"
                    (Server.Json.member "engine" ok
                    = Some (Server.Json.Str "fast"))
              | None -> Alcotest.fail "ping returned an error")
          | Error msg -> Alcotest.failf "ping failed: %s" msg);
          let req =
            { Server.Protocol.id = 11;
              query =
                Server.Protocol.Delay
                  { config = "i"; tau = 60e-12; technique = "SGDP" };
              deadline_ms = None }
          in
          let first =
            match Server.Client.call_raw c req with
            | Ok payload -> payload
            | Error msg -> Alcotest.failf "delay call failed: %s" msg
          in
          (* same request again: cold solve vs warm cache must not
             change a byte *)
          (match Server.Client.call_raw c req with
          | Ok payload ->
              Alcotest.(check string) "warm cache byte-identical" first
                payload
          | Error msg -> Alcotest.failf "second call failed: %s" msg);
          (* and the socket bytes match a direct library call on an
             equivalent engine *)
          let direct =
            Server.Json.to_string
              (Server.Protocol.response ~id:11
                 (Server.Protocol.execute
                    ~engine:
                      (Runtime.Engine.with_cache Runtime.Engine.fast
                         (Runtime.Cache.create ()))
                    req.Server.Protocol.query))
          in
          Alcotest.(check string) "socket equals direct call" direct first))

let test_daemon_concurrent_clients_and_shed () =
  let sock = tmp_sock () in
  (* queue depth 1 under a 24-client burst guarantees sheds *)
  let d = Server.Daemon.start (daemon_config ~queue_depth:1 sock) in
  let n = 24 in
  let oks = Atomic.make 0
  and sheds = Atomic.make 0
  and others = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let worker k () =
        let c = Server.Client.connect (Server.Client.Unix_path sock) in
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            let req =
              { Server.Protocol.id = k;
                query =
                  Server.Protocol.Delay
                    { config = "i";
                      tau = (40. +. float_of_int (k mod 4)) *. 1e-12;
                      technique = "SGDP" };
                deadline_ms = None }
            in
            match Server.Client.call c req with
            | Ok doc -> (
                match Server.Json.member "ok" doc with
                | Some _ -> Atomic.incr oks
                | None -> (
                    match Server.Json.member "error" doc with
                    | Some err
                      when Server.Json.member "code" err
                           = Some (Server.Json.Str "overloaded") ->
                        check_true "shed marked recoverable"
                          (Server.Json.member "recoverable" err
                          = Some (Server.Json.Bool true));
                        Atomic.incr sheds
                    | _ -> Atomic.incr others))
            | Error _ -> Atomic.incr others)
      in
      let threads = Array.init n (fun k -> Thread.create (worker k) ()) in
      Array.iter Thread.join threads);
  Alcotest.(check int)
    "every request answered" n
    (Atomic.get oks + Atomic.get sheds + Atomic.get others);
  Alcotest.(check int) "no protocol errors" 0 (Atomic.get others);
  check_true "some requests served" (Atomic.get oks > 0);
  check_true "overload shed at least once" (Atomic.get sheds > 0);
  (* daemon is gone: the socket file was unlinked on drain *)
  check_true "socket removed on shutdown" (not (Sys.file_exists sock))

let test_daemon_rejects_garbage () =
  let sock = tmp_sock () in
  let d = Server.Daemon.start (daemon_config sock) in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let c = Server.Client.connect (Server.Client.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          (* valid frame, invalid request document *)
          let r =
            match
              Server.Client.call_raw c
                { Server.Protocol.id = 1; query = Server.Protocol.Ping;
                  deadline_ms = None }
            with
            | Ok _ -> true
            | Error _ -> false
          in
          check_true "daemon alive before garbage" r);
      let raw =
        Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      Unix.connect raw (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
        (fun () ->
          Server.Protocol.write_frame raw "this is not json";
          match Server.Protocol.read_frame raw with
          | Ok payload -> (
              match Server.Json.parse payload with
              | Ok doc -> (
                  match Server.Json.member "error" doc with
                  | Some err ->
                      check_true "bad_request code"
                        (Server.Json.member "code" err
                        = Some (Server.Json.Str "bad_request"))
                  | None -> Alcotest.fail "garbage accepted")
              | Error _ -> Alcotest.fail "unparseable error response")
          | Error _ -> Alcotest.fail "no response to garbage");
      (* and the daemon still serves well-formed clients *)
      let c2 = Server.Client.connect (Server.Client.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c2)
        (fun () ->
          check_true "daemon survives garbage"
            (Result.is_ok (Server.Client.ping c2))))

let test_daemon_version_mismatch () =
  let sock = tmp_sock () in
  let d = Server.Daemon.start (daemon_config sock) in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let raw = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
        (fun () ->
          Server.Protocol.write_frame raw
            {|{"id":11,"op":"ping","version":"99.0.0"}|};
          (match Server.Protocol.read_frame raw with
          | Ok payload -> (
              match Server.Json.parse payload with
              | Ok doc ->
                  check_true "typed version_mismatch over the wire"
                    (match Server.Json.member "error" doc with
                    | Some err ->
                        Server.Json.member "code" err
                        = Some (Server.Json.Str "version_mismatch")
                    | None -> false);
                  check_true "mismatch echoes request id"
                    (Server.Json.member "id" doc
                    = Some (Server.Json.Num 11.0))
              | Error _ -> Alcotest.fail "unparseable mismatch response")
          | Error _ -> Alcotest.fail "no response to mismatched version");
          (* Same connection, compatible request: still served. *)
          Server.Protocol.write_frame raw
            (Printf.sprintf {|{"id":12,"op":"ping","version":%S}|}
               Server.Protocol.version);
          match Server.Protocol.read_frame raw with
          | Ok payload ->
              check_true "connection survives the mismatch"
                (match Server.Json.parse payload with
                | Ok doc -> Server.Json.member "ok" doc <> None
                | Error _ -> false)
          | Error _ -> Alcotest.fail "connection dropped after mismatch"))

(* ------------------------------------------------------------------ *)
(* Connection lifecycle: budget, deadlines, frame limits               *)

let counter d name =
  Option.value ~default:0
    (List.assoc_opt name (Runtime.Metrics.counters (Server.Daemon.metrics d)))

let error_code doc =
  match Server.Json.member "error" doc with
  | Some err -> (
      match Server.Json.member "code" err with
      | Some (Server.Json.Str c) -> Some c
      | _ -> None)
  | None -> None

let read_error_code fd =
  match Server.Protocol.read_frame fd with
  | Ok payload -> (
      match Server.Json.parse payload with
      | Ok doc -> error_code doc
      | Error _ -> None)
  | Error _ -> None

let test_daemon_conn_limit () =
  let sock = tmp_sock () in
  let d =
    Server.Daemon.start { (daemon_config sock) with max_conns = 2 }
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let c1 = Server.Client.connect (Server.Client.Unix_path sock) in
      let c2 = Server.Client.connect (Server.Client.Unix_path sock) in
      Fun.protect
        ~finally:(fun () ->
          Server.Client.close c1;
          Server.Client.close c2)
        (fun () ->
          (* Round-trips guarantee both connections are registered
             before the third arrives. *)
          check_true "c1 alive" (Result.is_ok (Server.Client.ping c1));
          check_true "c2 alive" (Result.is_ok (Server.Client.ping c2));
          let raw =
            Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
          in
          Unix.connect raw (Unix.ADDR_UNIX sock);
          Fun.protect
            ~finally:(fun () ->
              try Unix.close raw with Unix.Unix_error _ -> ())
            (fun () ->
              (* The shed is typed and marked recoverable... *)
              (match Server.Protocol.read_frame raw with
              | Ok payload -> (
                  match Server.Json.parse payload with
                  | Ok doc ->
                      check_true "typed too_many_connections"
                        (error_code doc = Some "too_many_connections");
                      check_true "shed marked recoverable"
                        (match Server.Json.member "error" doc with
                        | Some err ->
                            Server.Json.member "recoverable" err
                            = Some (Server.Json.Bool true)
                        | None -> false)
                  | Error _ -> Alcotest.fail "unparseable shed response")
              | Error _ -> Alcotest.fail "no shed response");
              (* ...and the connection is closed, not parked. *)
              check_true "shed connection closed"
                (Server.Protocol.read_frame raw = Error `Eof));
          check_true "shed counted" (counter d "server.conn_shed" >= 1);
          (* Closing a served connection frees budget for a new one. *)
          Server.Client.close c1;
          Thread.delay 0.05;
          let c3 = Server.Client.connect (Server.Client.Unix_path sock) in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c3)
            (fun () ->
              check_true "slot freed after close"
                (Result.is_ok (Server.Client.ping c3)))))

let test_daemon_read_timeouts () =
  let sock = tmp_sock () in
  let d =
    Server.Daemon.start
      { (daemon_config sock) with read_timeout_s = Some 0.15 }
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      (* Idle connection: reclaimed silently after the deadline. *)
      let idle = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect idle (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close idle with Unix.Unix_error _ -> ())
        (fun () ->
          check_true "idle connection closed by deadline"
            (Server.Protocol.read_frame idle = Error `Eof));
      check_true "idle timeout counted"
        (counter d "server.conn_idle_timeouts" >= 1);
      (* Slowloris: a started-but-stalled frame is answered [timeout]
         and dropped. *)
      let slow = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect slow (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
        (fun () ->
          (* Two bytes of a four-byte header, then silence. *)
          ignore (Unix.write slow (Bytes.of_string "\x00\x00") 0 2);
          check_true "mid-frame timeout answered typed"
            (read_error_code slow = Some "timeout");
          check_true "slowloris connection dropped"
            (Server.Protocol.read_frame slow = Error `Eof));
      check_true "mid-frame timeout counted"
        (counter d "server.conn_read_timeouts" >= 1);
      (* A healthy client on the same daemon still gets served. *)
      let c = Server.Client.connect (Server.Client.Unix_path sock) in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          check_true "healthy client survives"
            (Result.is_ok (Server.Client.ping c))))

let test_daemon_frame_limit () =
  let sock = tmp_sock () in
  let d =
    Server.Daemon.start
      { (daemon_config sock) with max_frames_per_conn = Some 2 }
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      let raw = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
        (fun () ->
          let ping id =
            Server.Protocol.write_frame raw
              (Server.Json.to_string
                 (Server.Protocol.request_to_json
                    { Server.Protocol.id; query = Server.Protocol.Ping;
                      deadline_ms = None }))
          in
          ping 1;
          ping 2;
          (* Both budgeted frames are served, then the daemon volunteers
             a typed frame_limit and closes — no third request needed. *)
          check_true "frame 1 served" (read_error_code raw = None);
          check_true "frame 2 served" (read_error_code raw = None);
          check_true "frame_limit code"
            (read_error_code raw = Some "frame_limit");
          check_true "budgeted connection closed"
            (Server.Protocol.read_frame raw = Error `Eof));
      check_true "frame limit counted"
        (counter d "server.conn_frame_limit" >= 1))

(* A daemon with its HTTP port on a free loopback port. *)
let with_http_daemon f =
  let sock = tmp_sock () in
  (* Find a free loopback port by binding port 0 first. *)
  let probe = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname probe with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close probe;
  f port
    (Server.Daemon.start { (daemon_config sock) with http_port = Some port })

let http_connect port payload =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let b = Bytes.of_string payload in
  let rec send ofs =
    if ofs < Bytes.length b then
      send (ofs + Unix.write fd b ofs (Bytes.length b - ofs))
  in
  send 0;
  fd

(* Everything the server sends until its EOF. *)
let http_read_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec recv () =
    match Unix.read fd chunk 0 512 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        recv ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents buf
  in
  recv ()

let http_status resp =
  if String.length resp >= 12 then String.sub resp 9 3 else "none"

let oversized_request =
  "GET /health HTTP/1.0\r\nX-Filler: " ^ String.make (10 * 1024) 'a' ^ "\r\n\r\n"

let test_http_cap_enforced () =
  with_http_daemon @@ fun port d ->
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      (* Send, wait [linger] seconds, half-close, read to EOF. *)
      let http_get ?(linger = 0.0) payload =
        let fd = http_connect port payload in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Thread.delay linger;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            http_read_all fd)
      in
      check_true "health ok"
        (http_status (http_get "GET /health HTTP/1.0\r\n\r\n") = "200");
      (* A header block past the cap must be answered 413, not
         truncated into a served request. The client lingers before
         its half-close, so the server has answered long before: had it
         closed with the request's tail unread, the kernel would have
         reset the connection and the 413 would be lost. *)
      check_true "413 on oversized header block"
        (http_status (http_get ~linger:0.1 oversized_request) = "413");
      check_true "http error counted" (counter d "server.http_errors" >= 1))

(* A client that is answered 413 but never half-closes must not hold
   the handler, and so [Daemon.stop], past the drain bound. *)
let test_http_drain_bounded () =
  with_http_daemon @@ fun port d ->
  let fd = http_connect port oversized_request in
  (* The server half-closes after its answer, so this read ends while
     the server is still draining. *)
  let resp = try http_read_all fd with Unix.Unix_error _ -> "" in
  let bound = Server.Listener.drain_s +. 2.0 in
  let stopped = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let th =
    Thread.create
      (fun () ->
        Server.Daemon.stop d;
        Atomic.set stopped true)
      ()
  in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < bound do
    Thread.delay 0.01
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Closing releases a handler that ignored the bound, so a failure
     here reports instead of hanging the suite. *)
  Unix.close fd;
  Thread.join th;
  check_true "413 before the client half-closes" (http_status resp = "413");
  check_true
    (Printf.sprintf "stop returned within %.2f s (took %.2f s)" bound elapsed)
    (elapsed < bound)

(* ------------------------------------------------------------------ *)
(* Client retry with backoff                                           *)

(* A listener that closes its first [drop_first] connections without a
   byte, then serves pings — the refused/reset shape
   call_raw_with_retry exists to absorb. *)
let flaky_listener sock ~drop_first =
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 16;
  let stop = Atomic.make false in
  let dropped = ref 0 in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept ~cloexec:true lfd with
              | fd, _ ->
                  if !dropped < drop_first then begin
                    incr dropped;
                    try Unix.close fd with Unix.Unix_error _ -> ()
                  end
                  else begin
                    (match Server.Protocol.read_frame fd with
                    | Ok payload -> (
                        match Server.Protocol.parse_request payload with
                        | Ok req ->
                            Server.Protocol.write_frame fd
                              (Server.Json.to_string
                                 (Server.Protocol.response
                                    ~id:req.Server.Protocol.id
                                    (Ok (Server.Json.Bool true))))
                        | Error e ->
                            Server.Protocol.write_frame fd
                              (Server.Json.to_string
                                 (Server.Protocol.parse_error_response e)))
                    | Error _ -> ());
                    try Unix.close fd with Unix.Unix_error _ -> ()
                  end
              | exception Unix.Unix_error _ -> ())
        done;
        try Unix.close lfd with Unix.Unix_error _ -> ())
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th

let fast_policy attempts =
  { Server.Client.attempts; base_delay_s = 0.005; max_delay_s = 0.02;
    seed = 1 }

let test_client_retry_recovers () =
  let sock = tmp_sock () in
  let shutdown = flaky_listener sock ~drop_first:2 in
  Fun.protect ~finally:shutdown (fun () ->
      match
        Server.Client.call_raw_with_retry ~policy:(fast_policy 5)
          (Server.Client.Unix_path sock)
          { Server.Protocol.id = 3; query = Server.Protocol.Ping;
            deadline_ms = None }
      with
      | Ok bytes ->
          check_true "served after drops"
            (match Server.Json.parse bytes with
            | Ok doc ->
                Server.Json.member "ok" doc = Some (Server.Json.Bool true)
            | Error _ -> false)
      | Error e ->
          Alcotest.failf "retry failed: %s"
            (retry_failure e))

let test_client_retry_budget () =
  let sock = tmp_sock () in
  (* Everything dropped: the budget must produce a typed error, not an
     unbounded loop. *)
  let shutdown = flaky_listener sock ~drop_first:max_int in
  Fun.protect ~finally:shutdown (fun () ->
      match
        Server.Client.call_raw_with_retry ~policy:(fast_policy 3)
          (Server.Client.Unix_path sock)
          { Server.Protocol.id = 4; query = Server.Protocol.Ping;
            deadline_ms = None }
      with
      | Ok _ -> Alcotest.fail "dropped connections produced a response"
      | Error e -> Alcotest.(check int) "budget spent" 3 e.Server.Client.attempts);
  (* No listener at all: refused connects also land on the budget. *)
  match
    Server.Client.call_raw_with_retry ~policy:(fast_policy 2)
      (Server.Client.Unix_path (sock ^ ".gone"))
      { Server.Protocol.id = 5; query = Server.Protocol.Ping;
        deadline_ms = None }
  with
  | Ok _ -> Alcotest.fail "phantom listener answered"
  | Error e -> Alcotest.(check int) "budget spent" 2 e.Server.Client.attempts

let suite =
  ( "server",
    [
      case "json: round-trip" test_json_roundtrip;
      case "json: number determinism" test_json_numbers;
      case "json: unicode escapes" test_json_escapes;
      case "json: malformed inputs" test_json_errors;
      case "workqueue: bounded admission" test_workqueue_bound;
      case "workqueue: close drains" test_workqueue_close_drains;
      case "workqueue: close releases pop" test_workqueue_unblocks_consumer;
      case "protocol: parse and validate" test_protocol_parse;
      case "protocol: request round-trip" test_protocol_request_roundtrip;
      case "protocol: version gate" test_protocol_version_gate;
      case "protocol: batching class" test_protocol_klass;
      case "protocol: framing" test_protocol_framing;
      case "protocol: frame size limit" test_protocol_frame_limit;
      case "metrics: prometheus stable names" test_prometheus_stable_names;
      case "batcher: queue timeout shed" test_batcher_queue_timeout;
      case "batcher: first fill wins" test_batcher_fill_once;
      slow_case "daemon: ping and byte identity" test_daemon_ping_and_identity;
      slow_case "daemon: concurrent clients shed typed"
        test_daemon_concurrent_clients_and_shed;
      slow_case "daemon: rejects garbage, stays up"
        test_daemon_rejects_garbage;
      slow_case "daemon: version mismatch typed, stays up"
        test_daemon_version_mismatch;
      slow_case "daemon: connection budget sheds typed"
        test_daemon_conn_limit;
      slow_case "daemon: read deadlines reclaim stalled conns"
        test_daemon_read_timeouts;
      slow_case "daemon: per-connection frame budget"
        test_daemon_frame_limit;
      slow_case "daemon: http request cap answers 413"
        test_http_cap_enforced;
      slow_case "daemon: http drain is bounded" test_http_drain_bounded;
      slow_case "client: retry recovers from dropped conns"
        test_client_retry_recovers;
      slow_case "client: retry budget is a hard cap"
        test_client_retry_budget;
    ] )
