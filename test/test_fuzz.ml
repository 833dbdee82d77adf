(* Fuzzing and chaos-machinery tests: the committed regression corpus
   replayed through Frame -> Json -> Protocol.parse, seeded fuzz
   sweeps (plain and under armed net faults), the fault-plan grammar
   and its pinned draws, and the cache circuit-breaker state machine. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

(* Resolved relative to the test binary so the replay works both under
   `dune runtest` and when the executable is run from the repo root. *)
let corpus_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "fuzz_corpus";
      "fuzz_corpus";
      Filename.concat "test" "fuzz_corpus";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some dir -> dir
  | None -> "fuzz_corpus"

let corpus_entries () =
  match Sys.readdir corpus_dir with
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".bin")
      |> List.sort String.compare
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let test_corpus_replay () =
  let entries = corpus_entries () in
  check_true "corpus is non-empty" (entries <> []);
  List.iter
    (fun name ->
      let payload = read_file (Filename.concat corpus_dir name) in
      match Server.Fuzz.run_one payload with
      | Ok _ -> ()
      | Error exn_s ->
          Alcotest.failf "corpus entry %s escaped: %s" name exn_s)
    entries

(* ------------------------------------------------------------------ *)
(* Seeded sweeps *)

let check_no_escapes label (s : Server.Fuzz.stats) =
  (match s.Server.Fuzz.escaped with
  | [] -> ()
  | (k, input, exn_s) :: _ ->
      Alcotest.failf "%s: input %d escaped with %s (input: %s)" label k
        exn_s input);
  check_true (label ^ ": every input classified")
    (s.Server.Fuzz.parsed + s.Server.Fuzz.bad_requests
     + s.Server.Fuzz.version_mismatches
    = s.Server.Fuzz.inputs)

let test_fuzz_sweep () =
  let s = Server.Fuzz.run ~seed:42 ~count:4000 () in
  check_no_escapes "seed 42" s;
  (* The generator must exercise every outcome class, or the sweep is
     testing less than it claims. *)
  check_true "some inputs parsed" (s.Server.Fuzz.parsed > 0);
  check_true "some bad requests" (s.Server.Fuzz.bad_requests > 0);
  check_true "some version mismatches" (s.Server.Fuzz.version_mismatches > 0);
  check_true "some frame trips" (s.Server.Fuzz.frame_trips > 0)

let test_fuzz_sweep_seeds () =
  List.iter
    (fun seed ->
      check_no_escapes
        (Printf.sprintf "seed %d" seed)
        (Server.Fuzz.run ~seed ~count:1000 ()))
    [ 0; 1; 7; 1337 ]

let test_fuzz_under_netfaults () =
  (* Arm net faults so the frame trips see torn/stalled/dropped/
     corrupted fd ops: outcomes must stay typed. *)
  let net = Server.Netfault.injector in
  Server.Netfault.arm ~stall_s:0.002
    { kind = None; sel = Faultplan.Fraction { rate = 0.3; seed = 9 } };
  Fun.protect ~finally:(fun () -> Faultplan.disarm net) (fun () ->
      let s = Server.Fuzz.run ~seed:5 ~count:600 ~frame_every:4 () in
      check_no_escapes "under net faults" s;
      check_true "net faults actually injected"
        (Faultplan.injected net > 0))

(* ------------------------------------------------------------------ *)
(* The fault-plan grammar (the table is in [Helpers.Fault_grammar]) *)

let test_netfault_grammar () =
  Fault_grammar.(check "net" Server.Netfault.injector net)

let test_cache_fault_grammar () =
  Fault_grammar.(check "cache" Runtime.Cache.faults cache)

(* The first 16 draws of every salt in use, at seed 0 (the grammar's
   default), computed with the draw each injector had before they
   shared one: a change to the draw cannot silently move a committed
   fault schedule. *)
let pinned_draws =
  [
    ( "tran.fault",
      [| 0x1.de99cf9cf098p-2; 0x1.805d5c41a33cp-1; 0x1.724e48aeb05ap-1;
         0x1.de3a5add5ef4p-1; 0x1.a03f3b7ff3f4p-2; 0x1.d79b129a38e6p-1;
         0x1.b1ef8e2a7296p-1; 0x1.063f6da11e68p-2; 0x1.312eb6671d7p-4;
         0x1.ea07b8a4fff4p-1; 0x1.d981ea452cc4p-2; 0x1.a3c9c8810f36p-1;
         0x1.2bedb1dd0a08p-1; 0x1.a74ab4936682p-1; 0x1.c1d98717ec18p-2;
         0x1.64a9c56c6c98p-2 |] );
    ( "cache.fault",
      [| 0x1.ddb9a266c68cp-1; 0x1.060a89291dfp-3; 0x1.f59c0f965c48p-3;
         0x1.6effedd21fdep-1; 0x1.1dc22f0a21aap-1; 0x1.d05b933ede2p-4;
         0x1.cd2097c8a1ep-1; 0x1.4fce4c4dbb0cp-1; 0x1.8f7c0ae2d29p-1;
         0x1.261c8b43d14cp-1; 0x1.741368c73decp-1; 0x1.60b72444ed5p-1;
         0x1.e795e6ae8bbcp-1; 0x1.71505b1e0278p-2; 0x1.2cb719c0afe8p-2;
         0x1.3d7a9d689678p-2 |] );
    ( "net.fault",
      [| 0x1.c2c3e158d868p-1; 0x1.1765d119f886p-1; 0x1.d8272ac55e8p-5;
         0x1.ddcb69dbd39cp-2; 0x1.70c97857f848p-2; 0x1.01a181be9bcp-6;
         0x1.edcac8b3a322p-1; 0x1.00e2e28a28fp-4; 0x1.342b574a6bfp-4;
         0x1.d5ee4c2a7fc8p-3; 0x1.65918e9cb906p-1; 0x1.fa9e4955db52p-1;
         0x1.a305d1609528p-3; 0x1.4bd73807dd7p-4; 0x1.301526b80d1p-4;
         0x1.a3edb853c056p-1 |] );
    ( "runtime.guard",
      [| 0x1.9c68e3ef2dfap-1; 0x1.5260e24f7e48p-1; 0x1.69a00fdef3a8p-3;
         0x1.80407f4db008p-2; 0x1.fd6bc5515b7ap-1; 0x1.6fadfc0679a8p-1;
         0x1.a7387b260304p-1; 0x1.866e5b8be45cp-2; 0x1.8fbf2c250ff8p-1;
         0x1.a19321186bf4p-2; 0x1.6d706c3808ap-5; 0x1.4e241c1555ap-4;
         0x1.524009a0f0d2p-1; 0x1.02d4d184f86p-4; 0x1.8789deabe35p-4;
         0x1.bc52479e2accp-1 |] );
    ( "client.retry",
      [| 0x1.8d26d8412914p-2; 0x1.fcabf4d66676p-1; 0x1.81a9577708f2p-1;
         0x1.c16ffd3ce73p-4; 0x1.8f28e6a85d3ep-1; 0x1.23598ba39706p-1;
         0x1.6e4c3de32b72p-1; 0x1.740b82ef4b22p-1; 0x1.6798ba51443p-3;
         0x1.e0eb1b8f6182p-1; 0x1.a0cfd395588cp-1; 0x1.84606a196bb4p-1;
         0x1.fa0e01aec4p-8; 0x1.fd7111559e8p-2; 0x1.39ef3eb2ce3p-4;
         0x1.17ebb0ddf9fcp-1 |] );
  ]

(* Each injector rolls its own salt at its op index: a seed-0 plan at
   rate 1/2 hits exactly the ops whose pinned draw is below 1/2. *)
let check_schedule (type k) (inj : k Faultplan.t) pinned =
  Faultplan.arm inj
    { kind = None; sel = Faultplan.Fraction { rate = 0.5; seed = 0 } };
  let hits =
    Fun.protect
      ~finally:(fun () -> Faultplan.disarm inj)
      (fun () -> Array.map (fun _ -> Faultplan.roll inj <> None) pinned)
  in
  Alcotest.(check (array bool)) "schedule" (Array.map (fun u -> u < 0.5) pinned)
    hits

let test_pinned_draws () =
  List.iter
    (fun (salt, pinned) ->
      Array.iteri
        (fun k u ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s draw %d" salt k)
            u
            (Faultplan.uniform ~salt ~seed:0 k))
        pinned)
    pinned_draws;
  let pinned salt = List.assoc salt pinned_draws in
  check_schedule Spice.Transient.Fault.injector (pinned "tran.fault");
  check_schedule Runtime.Cache.faults (pinned "cache.fault");
  check_schedule Server.Netfault.injector (pinned "net.fault");
  (* The guard keeps a case when its 48 draw bits are even. *)
  let g = Runtime.Guard.make ~every:2 () in
  Array.iteri
    (fun i u ->
      Alcotest.(check bool)
        (Printf.sprintf "guard selects %d" i)
        (Float.rem (Float.ldexp u 48) 2.0 = 0.0)
        (Runtime.Guard.selects g i))
    (pinned "runtime.guard")

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine *)

let mk_breaker ?(threshold = 3) ?(cooldown_s = 10.0) () =
  let now = ref 0.0 in
  let b =
    Runtime.Cache.Breaker.create ~threshold ~cooldown_s
      ~now:(fun () -> !now) ()
  in
  (b, now)

let test_breaker_cycle () =
  let open Runtime.Cache.Breaker in
  let b, now = mk_breaker () in
  check_true "starts closed" (state b = Closed);
  (* Failures below the threshold keep it closed... *)
  check_true "admit 1" (admit b);
  failure b;
  check_true "admit 2" (admit b);
  failure b;
  check_true "still closed" (state b = Closed);
  (* ...a success resets the streak... *)
  check_true "admit 3" (admit b);
  success b;
  check_true "admit 4" (admit b);
  failure b;
  check_true "streak was reset" (state b = Closed);
  (* ...and threshold consecutive failures open it. *)
  failure b;
  failure b;
  check_true "opened" (state b = Open);
  Alcotest.(check int) "one open" 1 (opens b);
  (* Open short-circuits until the cooldown. *)
  check_true "short-circuited" (not (admit b));
  check_true "short-circuited again" (not (admit b));
  Alcotest.(check int) "short circuits counted" 2 (short_circuits b);
  now := 9.0;
  check_true "still cooling" (not (admit b));
  now := 10.5;
  (* One probe is admitted, concurrent ops still shed. *)
  check_true "probe admitted" (admit b);
  check_true "half-open" (state b = Half_open);
  check_true "only one probe" (not (admit b));
  success b;
  check_true "reclosed" (state b = Closed);
  Alcotest.(check int) "one reclose" 1 (recloses b);
  (* A failed probe re-opens for another full cooldown. *)
  failure b;
  failure b;
  failure b;
  check_true "reopened" (state b = Open);
  now := 21.0;
  check_true "probe 2 admitted" (admit b);
  failure b;
  check_true "probe failure reopens" (state b = Open);
  Alcotest.(check int) "three opens" 3 (opens b);
  now := 40.0;
  check_true "probe 3" (admit b);
  success b;
  check_true "closed again" (state b = Closed)

(* Random op/clock sequences driven the way the cache drives the
   breaker (admit, then deliver the outcome only when admitted). *)
let breaker_events_gen =
  QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 3))

let test_breaker_properties =
  qcase ~count:300 "breaker invariants" breaker_events_gen (fun events ->
      let open Runtime.Cache.Breaker in
      let threshold = 3 and cooldown_s = 5.0 in
      let b, now = mk_breaker ~threshold ~cooldown_s () in
      let consecutive_failures = ref 0 in
      List.iter
        (fun e ->
          match e with
          | 0 | 1 -> (
              let was_closed = state b = Closed in
              let admitted = admit b in
              (* A closed breaker never sheds. *)
              if was_closed && not admitted then
                QCheck2.Test.fail_report "short-circuit while closed";
              if admitted then
                if e = 0 then begin
                  success b;
                  consecutive_failures := 0
                end
                else begin
                  failure b;
                  incr consecutive_failures;
                  (* Threshold consecutive failures never leave it
                     closed. *)
                  if !consecutive_failures >= threshold && state b = Closed
                  then QCheck2.Test.fail_report "closed past threshold"
                end)
          | 2 -> now := !now +. 1.0
          | _ ->
              now := !now +. cooldown_s +. 1.0;
              (* After delivering an outcome the streak bookkeeping
                 restarts relative to state, not the clock; clock
                 moves don't change the failure streak. *)
              ())
        events;
      (* Every open must precede its reclose. *)
      opens b >= recloses b && recloses b >= 0 && short_circuits b >= 0)

let test_breaker_create_validation () =
  (match Runtime.Cache.Breaker.create ~threshold:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted");
  match Runtime.Cache.Breaker.create ~cooldown_s:(-1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative cooldown accepted"

(* ------------------------------------------------------------------ *)
(* Disk-fault injection drives the breaker in a real cache *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sta_fuzz_cache_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | files ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            files
      | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_cache_breaker_under_injected_faults () =
  with_tmp_dir (fun dir ->
      let now = ref 0.0 in
      let cache =
        Runtime.Cache.create ~disk_dir:dir ~breaker_threshold:4
          ~breaker_cooldown_s:5.0
          ~now:(fun () -> !now)
          ()
      in
      let wave = Waveform.Wave.create [| 0.0; 1e-12 |] [| 0.0; 1.0 |] in
      (* Every disk op fails while armed. *)
      let faults = Runtime.Cache.faults in
      Faultplan.arm faults
        { kind = None; sel = Faultplan.Fraction { rate = 1.0; seed = 0 } };
      Fun.protect ~finally:(fun () -> Faultplan.disarm faults) (fun () ->
          for i = 0 to 7 do
            Runtime.Cache.store cache (Printf.sprintf "key%d" i) [ wave ]
          done;
          check_true "breaker opened"
            (Runtime.Cache.breaker_state cache
            = Some Runtime.Cache.Breaker.Open);
          check_true "write errors counted"
            (Runtime.Cache.write_errors cache >= 4);
          (* Memory shards keep serving while the disk is fenced off. *)
          check_true "memory still serves"
            (Runtime.Cache.find cache "key0" <> None);
          check_true "short circuits happened"
            (Runtime.Cache.breaker_short_circuits cache > 0));
      (* Disarmed + cooled down: the half-open probe re-closes it. *)
      now := 6.0;
      Runtime.Cache.store cache "probe" [ wave ];
      check_true "breaker reclosed"
        (Runtime.Cache.breaker_state cache
        = Some Runtime.Cache.Breaker.Closed);
      check_true "reclose counted" (Runtime.Cache.breaker_recloses cache = 1);
      (* And the disk layer is genuinely back: a fresh cache reads the
         probe entry from disk. *)
      let cache2 = Runtime.Cache.create ~disk_dir:dir () in
      check_true "disk writes resumed"
        (Runtime.Cache.find cache2 "probe" <> None))

let test_disk_fault_determinism () =
  let faults = Runtime.Cache.faults in
  let record () =
    Faultplan.arm faults
      { kind = None; sel = Faultplan.Fraction { rate = 0.5; seed = 3 } };
    Fun.protect ~finally:(fun () -> Faultplan.disarm faults) (fun () ->
        with_tmp_dir (fun dir ->
            let cache = Runtime.Cache.create ~disk_dir:dir () in
            for i = 0 to 19 do
              ignore (Runtime.Cache.find cache (Printf.sprintf "k%d" i))
            done;
            ( Faultplan.injected faults,
              Runtime.Cache.read_errors cache )))
  in
  let i1, e1 = record () and i2, e2 = record () in
  Alcotest.(check int) "same injections" i1 i2;
  Alcotest.(check int) "same read errors" e1 e2;
  check_true "some faults injected" (i1 > 0);
  check_true "not every op faulted" (i1 < 20)

let suite =
  ( "fuzz",
    [
      case "corpus replay stays typed" test_corpus_replay;
      case "seeded sweep stays typed" test_fuzz_sweep;
      case "more seeds stay typed" test_fuzz_sweep_seeds;
      case "sweep under net faults stays typed" test_fuzz_under_netfaults;
      case "netfault grammar" test_netfault_grammar;
      case "cache fault grammar" test_cache_fault_grammar;
      case "fault plan draws pinned" test_pinned_draws;
      case "breaker closed->open->half->closed" test_breaker_cycle;
      test_breaker_properties;
      case "breaker create validation" test_breaker_create_validation;
      case "cache breaker under injected faults"
        test_cache_breaker_under_injected_faults;
      case "disk fault determinism" test_disk_fault_determinism;
    ] )
