(* Crash-safety suite: CRC-32 vectors, the record format's scan
   properties, writes on a full disk, write-ahead journal torture
   (torn tails, CRC corruption, duplicate retires, replay idempotence,
   the committed hostile-segment corpus), disk-cache scrub, answers
   across a restart on the same cache dir, daemon journal replay with
   retry dedup, drain retirement, health states, the heartbeat
   watchdog, and the restarting supervisor. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Scratch infrastructure *)

let temp_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> rm_rf (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_segment dir bytes =
  let oc = open_out_bin (Filename.concat dir "wal-000001.seg") in
  output_string oc bytes;
  close_out oc

let tmp_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sta_crash_%d_%d.sock" (Unix.getpid ()) !n)

let daemon_config ?journal_dir ?watchdog_s ?on_wedged
    ?(queue_depth = 16) sock =
  {
    Server.Daemon.default_config with
    addr = Server.Client.Unix_path sock;
    engine =
      Runtime.Engine.with_cache Runtime.Engine.fast (Runtime.Cache.create ());
    queue_depth;
    journal_dir;
    watchdog_s;
    on_wedged;
  }

let counter d name =
  match
    List.assoc_opt name (Runtime.Metrics.counters (Server.Daemon.metrics d))
  with
  | Some v -> v
  | None -> 0

let wait_for ?(timeout_s = 10.0) msg pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let delay_req id tau_ps =
  {
    Server.Protocol.id;
    query =
      Server.Protocol.Delay
        { config = "i"; tau = tau_ps *. 1e-12; technique = "SGDP" };
    deadline_ms = None;
  }

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc32_vector () =
  (* The standard check value: CRC-32("123456789") = 0xCBF43926, the
     same answer zlib and PNG give — which is what lets the hostile
     corpus be generated by external tools. *)
  Alcotest.(check int32)
    "check value" 0xCBF43926l
    (Runtime.Crc32.string "123456789");
  let s = "123456789" in
  let framed = "xx" ^ s ^ "yy" in
  Alcotest.(check int32)
    "substring update equals whole-string"
    (Runtime.Crc32.string s)
    (Runtime.Crc32.update 0l framed 2 (String.length s))

(* ------------------------------------------------------------------ *)
(* The record format *)

let record_magic = "test.record.1\n"

(* Frame boundaries of [bodies] encoded after [record_magic]. *)
let boundaries bodies =
  List.fold_left
    (fun acc b -> (List.hd acc + 8 + String.length b) :: acc)
    [ String.length record_magic ]
    bodies
  |> List.rev

let rec is_subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' ->
      if String.equal x y then is_subsequence sub' l' else is_subsequence sub l'

let qcheck_record_scan =
  qcase ~count:100 "record: scan keeps exactly the intact frames"
    QCheck2.Gen.(
      pair
        (list_size (int_bound 6) (string_size ~gen:char (int_range 0 40)))
        (int_range 1 255))
    (fun (bodies, mask) ->
      let raw = Runtime.Record.encode ~magic:record_magic bodies in
      let n = String.length raw and mlen = String.length record_magic in
      let scan s = Runtime.Record.scan ~magic:record_magic s in
      let whole =
        scan raw = Some { Runtime.Record.bodies; crc_skipped = 0; torn = false }
      in
      (* Any single flipped byte after the magic loses at least one
         body, and never yields a changed one. *)
      let flips =
        List.init (n - mlen) (fun i ->
            let b = Bytes.of_string raw in
            let at = mlen + i in
            Bytes.set b at (Char.chr (Char.code raw.[at] lxor mask));
            match scan (Bytes.to_string b) with
            | Some r ->
                List.length r.bodies < List.length bodies
                && (r.crc_skipped >= 1 || r.torn)
                && is_subsequence r.bodies bodies
            | None -> false)
      in
      (* Truncation keeps the frames wholly before the cut, and is torn
         unless it falls on a frame boundary. *)
      let bounds = boundaries bodies in
      let cuts =
        List.init (n - mlen + 1) (fun i ->
            let cut = mlen + i in
            let whole_frames =
              List.length (List.filter (fun b -> b <= cut) bounds) - 1
            in
            scan (String.sub raw 0 cut)
            = Some
                {
                  Runtime.Record.bodies =
                    List.filteri (fun i _ -> i < whole_frames) bodies;
                  crc_skipped = 0;
                  torn = not (List.mem cut bounds);
                })
      in
      whole && List.for_all Fun.id flips && List.for_all Fun.id cuts
      && scan (String.sub raw 0 (mlen - 1)) = None)

(* A full disk must never publish a truncated file. Every atomic write
   goes through a tmp name known in advance, so a symlink from it to
   /dev/full makes exactly that write fail with ENOSPC when the file is
   closed. *)
let test_full_disk_publishes_nothing () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let full path =
    Unix.symlink "/dev/full"
      (Printf.sprintf "%s.tmp.%d.0" path (Unix.getpid ()))
  in
  let with_dir prefix f =
    let dir = temp_dir prefix in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let pending dir =
    let j = Server.Journal.open_ dir in
    let st = Server.Journal.stats j in
    Server.Journal.close j;
    (st.Server.Journal.pending, st.Server.Journal.bad_segments)
  in
  (* Journal open: compacting the recovered set fails, so open refuses
     and leaves the old segment in place. *)
  with_dir "wal_full_open" (fun dir ->
      let j = Server.Journal.open_ dir in
      let p = "admitted before the disk filled" in
      Server.Journal.admit j ~digest:(Server.Journal.digest p) ~payload:p;
      Server.Journal.close j;
      full (Filename.concat dir "wal-000001.seg");
      (match Server.Journal.open_ dir with
      | j ->
          Server.Journal.close j;
          Alcotest.fail "open on a full disk compacted nothing yet succeeded"
      | exception Sys_error _ -> ());
      Alcotest.(check (pair int int)) "open: pending kept, no bad segment"
        (1, 0) (pending dir));
  (* Journal rotation: the compacted segment cannot be written, so the
     live segment stays and keeps every record. *)
  with_dir "wal_full_rotate" (fun dir ->
      let j = Server.Journal.open_ ~max_segment_bytes:256 dir in
      full (Filename.concat dir "wal-000001.seg");
      for i = 1 to 6 do
        let p = Printf.sprintf "%03d:%s" i (String.make 80 'x') in
        Server.Journal.admit j ~digest:(Server.Journal.digest p) ~payload:p
      done;
      let st = Server.Journal.stats j in
      Server.Journal.close j;
      check_true "rotate: failed rotation counted"
        (st.Server.Journal.write_errors >= 1);
      Alcotest.(check (pair int int)) "rotate: pending kept, no bad segment"
        (6, 0) (pending dir));
  (* Cache store: the entry stays memory-only and counts as a failure. *)
  with_dir "cache_full" (fun dir ->
      let c = Runtime.Cache.create ~disk_dir:dir () in
      let key = Runtime.Cache.Key.make "full" [ Runtime.Cache.Key.str "1" ] in
      full (Filename.concat dir key);
      Runtime.Cache.store c key
        [ Waveform.Wave.create [| 0.0; 1.0 |] [| 0.0; 1.0 |] ];
      Alcotest.(check int) "store: write error" 1
        (Runtime.Cache.write_errors c);
      Alcotest.(check int) "store: nothing written" 0
        (Runtime.Cache.bytes_written c);
      Alcotest.(check (list string)) "store: no file published" []
        (Array.to_list (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Journal: happy path and torture *)

let test_journal_roundtrip () =
  let dir = temp_dir "wal_rt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Server.Journal.open_ dir in
      let p1 = "payload one" and p2 = "payload two" in
      let d1 = Server.Journal.digest p1 and d2 = Server.Journal.digest p2 in
      Server.Journal.admit j ~digest:d1 ~payload:p1;
      Server.Journal.admit j ~digest:d2 ~payload:p2;
      (* Admit is idempotent per digest — a reconnecting client racing
         replay must not double-journal. *)
      Server.Journal.admit j ~digest:d1 ~payload:p1;
      Server.Journal.retire j d2;
      let st = Server.Journal.stats j in
      Alcotest.(check int) "pending" 1 st.Server.Journal.pending;
      let pending d =
        List.exists
          (fun e -> e.Server.Journal.digest = d)
          (Server.Journal.pending j)
      in
      check_true "d1 pending" (pending d1);
      check_true "d2 retired" (not (pending d2));
      Server.Journal.close j;
      (* Crash-restart: a fresh open recovers exactly the unretired
         set, compacted into a single fresh segment. *)
      let j2 = Server.Journal.open_ dir in
      (match Server.Journal.pending j2 with
      | [ e ] ->
          Alcotest.(check string) "digest" d1 e.Server.Journal.digest;
          Alcotest.(check string) "payload" p1 e.Server.Journal.payload
      | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
      Alcotest.(check int)
        "replayed counter" 1
        (Server.Journal.stats j2).Server.Journal.replayed;
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".seg")
      in
      Alcotest.(check int) "compacted to one segment" 1 (List.length segs);
      Server.Journal.close j2)

let test_journal_torn_tail () =
  let dir = temp_dir "wal_torn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p1 = "survives the crash" and p2 = "lost mid-write" in
      let d1 = Server.Journal.digest p1 and d2 = Server.Journal.digest p2 in
      let whole = Server.Journal.encode_admit ~digest:d2 ~payload:p2 in
      write_segment dir
        (Server.Journal.magic
        ^ Server.Journal.encode_admit ~digest:d1 ~payload:p1
        ^ String.sub whole 0 (String.length whole / 2));
      let j = Server.Journal.open_ dir in
      (match Server.Journal.pending j with
      | [ e ] -> Alcotest.(check string) "prefix survives" p1 e.payload
      | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
      check_true "torn tail counted"
        ((Server.Journal.stats j).Server.Journal.torn_tails >= 1);
      Server.Journal.close j)

let test_journal_crc_corrupt_record () =
  let dir = temp_dir "wal_crc" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p1 = "before the rot" and p2 = "bit-rotted" and p3 = "after" in
      let enc p =
        Server.Journal.encode_admit ~digest:(Server.Journal.digest p)
          ~payload:p
      in
      let rotted = Bytes.of_string (enc p2) in
      (* Flip one body byte: the CRC no longer matches, but the length
         prefix still locates the next record boundary. *)
      Bytes.set rotted 10
        (Char.chr (Char.code (Bytes.get rotted 10) lxor 0xFF));
      write_segment dir
        (Server.Journal.magic ^ enc p1 ^ Bytes.to_string rotted ^ enc p3);
      let j = Server.Journal.open_ dir in
      Alcotest.(check (list string))
        "rotted record skipped, neighbours survive" [ p1; p3 ]
        (List.map
           (fun e -> e.Server.Journal.payload)
           (Server.Journal.pending j));
      check_true "crc skip counted"
        ((Server.Journal.stats j).Server.Journal.crc_skipped >= 1);
      Server.Journal.close j)

let test_journal_duplicate_retire () =
  let dir = temp_dir "wal_dup" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j = Server.Journal.open_ dir in
      let p = "retire me twice" in
      let d = Server.Journal.digest p in
      Server.Journal.admit j ~digest:d ~payload:p;
      Server.Journal.retire j d;
      Server.Journal.retire j d;
      Server.Journal.retire j (String.make 32 '0');
      Alcotest.(check int)
        "nothing pending" 0
        (Server.Journal.stats j).Server.Journal.pending;
      Server.Journal.close j;
      let j2 = Server.Journal.open_ dir in
      Alcotest.(check int)
        "nothing replayed" 0
        (Server.Journal.stats j2).Server.Journal.replayed;
      Server.Journal.close j2)

let qcheck_replay_idempotent =
  qcase ~count:25 "journal: open twice replays the same pending set"
    QCheck2.Gen.(
      list_size (int_bound 10)
        (pair (string_size ~gen:printable (int_range 0 24)) bool))
    (fun ops ->
      let dir = temp_dir "wal_q" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let j = Server.Journal.open_ dir in
          List.iter
            (fun (p, retire) ->
              let d = Server.Journal.digest p in
              Server.Journal.admit j ~digest:d ~payload:p;
              if retire then Server.Journal.retire j d)
            ops;
          Server.Journal.close j;
          let read () =
            let j = Server.Journal.open_ dir in
            let l =
              List.map
                (fun e ->
                  (e.Server.Journal.digest, e.Server.Journal.payload))
                (Server.Journal.pending j)
            in
            Server.Journal.close j;
            l
          in
          (* Replay must be idempotent: recovering, crashing before
             doing any work and recovering again sees the same set in
             the same order. *)
          read () = read ()))

(* ------------------------------------------------------------------ *)
(* The committed hostile-segment corpus *)

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

(* Expected surviving payloads per corpus segment, plus a counter
   predicate. The payloads are fixed by the generator that produced
   the committed files. *)
let corpus_expectations =
  let p1 =
    {|{"id":1,"op":"delay","config":"i","tau_ps":60,"technique":"SGDP"}|}
  in
  let p3 = {|{"id":3,"op":"ping"}|} in
  [
    ( "wal_bad_magic.bin",
      [],
      fun (st : Server.Journal.stats) -> st.bad_segments >= 1 );
    ( "wal_crc_corrupt.bin",
      [ p1; p3 ],
      fun (st : Server.Journal.stats) -> st.crc_skipped >= 1 );
    ( "wal_huge_len.bin",
      [ p1 ],
      fun (st : Server.Journal.stats) -> st.torn_tails >= 1 );
    ( "wal_orphan_retire.bin",
      [ p3 ],
      fun (st : Server.Journal.stats) -> st.crc_skipped = 0 );
    ( "wal_torn_tail.bin",
      [ p1 ],
      fun (st : Server.Journal.stats) -> st.torn_tails >= 1 );
  ]

let test_wal_corpus () =
  let committed =
    match Sys.readdir corpus_dir with
    | files ->
        Array.to_list files
        |> List.filter (fun f ->
               String.length f >= 4 && String.sub f 0 4 = "wal_")
    | exception Sys_error _ -> []
  in
  check_true "at least 4 hostile segments committed"
    (List.length committed >= 4);
  List.iter
    (fun (name, expected, pred) ->
      let src = Filename.concat corpus_dir name in
      check_true (name ^ " present") (Sys.file_exists src);
      let bytes = read_file src in
      let dir = temp_dir "wal_corpus" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          write_segment dir bytes;
          let j = Server.Journal.open_ dir in
          Alcotest.(check (list string))
            (name ^ ": surviving payloads")
            expected
            (List.map
               (fun e -> e.Server.Journal.payload)
               (Server.Journal.pending j));
          check_true (name ^ ": recovery counters")
            (pred (Server.Journal.stats j));
          Server.Journal.close j))
    corpus_expectations

(* ------------------------------------------------------------------ *)
(* Disk-cache scrub *)

let test_cache_scrub () =
  let dir = temp_dir "scrub" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let wave = Waveform.Wave.create [| 0.0; 1.0 |] [| 0.0; 1.0 |] in
      let c = Runtime.Cache.create ~disk_dir:dir () in
      let k1 = Runtime.Cache.Key.make "scrub" [ Runtime.Cache.Key.str "1" ] in
      let k2 = Runtime.Cache.Key.make "scrub" [ Runtime.Cache.Key.str "2" ] in
      Runtime.Cache.store c k1 [ wave ];
      Runtime.Cache.store c k2 [ wave ];
      (* A crash mid-write: one entry torn to garbage, one tmp file the
         dying process never renamed. *)
      let oc = open_out_bin (Filename.concat dir k2) in
      output_string oc "garbage";
      close_out oc;
      let tmp = Filename.concat dir (k1 ^ ".tmp.999.0") in
      let oc = open_out_bin tmp in
      output_string oc "half-written";
      close_out oc;
      let fresh = Runtime.Cache.create ~disk_dir:dir () in
      let r = Runtime.Cache.scrub fresh in
      Alcotest.(check int) "corrupt removed" 1 r.Runtime.Cache.corrupt;
      Alcotest.(check int) "tmp reaped" 1 r.Runtime.Cache.tmp_reaped;
      check_true "scrub completed within budget" r.Runtime.Cache.complete;
      check_true "survivor scanned" (r.Runtime.Cache.scanned >= 1);
      check_true "corrupt entry unlinked"
        (not (Sys.file_exists (Filename.concat dir k2)));
      check_true "tmp leftover unlinked" (not (Sys.file_exists tmp));
      check_true "good entry survives"
        (Sys.file_exists (Filename.concat dir k1)))

(* A restarted daemon re-opens its cache dir with a fresh [Cache]: the
   answers it renders from disk must be the bytes the first process
   rendered from its own solves. *)
let test_restart_answers_from_disk () =
  let dir = temp_dir "restart" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let queries =
        Server.Protocol.
          [
            Gamma { config = "i"; tau = 1200e-12; ladder = None };
            Delay { config = "i"; tau = 1250e-12; technique = "SGDP" };
            Delay { config = "ii"; tau = 1300e-12; technique = "WLS5" };
          ]
      in
      let pass () =
        let cache = Runtime.Cache.create ~disk_dir:dir () in
        let engine = Runtime.Engine.with_cache Runtime.Engine.fast cache in
        let bytes =
          List.mapi
            (fun id q ->
              Server.Json.to_string
                (Server.Protocol.response ~id
                   (Server.Protocol.execute ~engine q)))
            queries
        in
        (bytes, cache)
      in
      let cold, _ = pass () in
      let warm, cache = pass () in
      List.iter2
        (fun a b ->
          Alcotest.(check string) "restart answers byte-identical" a b)
        cold warm;
      check_true "answered from disk" (Runtime.Cache.disk_hits cache > 0);
      Alcotest.(check int) "no misses after restart" 0
        (Runtime.Cache.misses cache))

(* ------------------------------------------------------------------ *)
(* Daemon: replay, dedup, drain retirement, health *)

let test_daemon_replays_journal () =
  let sock = tmp_sock () in
  let jdir = temp_dir "wal_replay" in
  Fun.protect
    ~finally:(fun () -> rm_rf jdir)
    (fun () ->
      let req = delay_req 21 60.0 in
      let payload =
        Server.Json.to_string (Server.Protocol.request_to_json req)
      in
      let digest = Server.Journal.digest payload in
      (* Simulate the crash: admitted, never retired, process gone. *)
      let j = Server.Journal.open_ jdir in
      Server.Journal.admit j ~digest ~payload;
      Server.Journal.close j;
      let d = Server.Daemon.start (daemon_config ~journal_dir:jdir sock) in
      Fun.protect
        ~finally:(fun () -> Server.Daemon.stop d)
        (fun () ->
          wait_for "journal replay" (fun () -> counter d "server.replayed" >= 1);
          (* The reconnecting client resends byte-identical payload;
             the daemon answers from the replay table and the bytes
             match a direct library call on an equivalent engine. *)
          let c = Server.Client.connect (Server.Client.Unix_path sock) in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let got =
                match Server.Client.call_raw c req with
                | Ok b -> b
                | Error m -> Alcotest.failf "call failed: %s" m
              in
              let direct =
                Server.Json.to_string
                  (Server.Protocol.response ~id:21
                     (Server.Protocol.execute
                        ~engine:
                          (Runtime.Engine.with_cache Runtime.Engine.fast
                             (Runtime.Cache.create ()))
                        req.Server.Protocol.query))
              in
              Alcotest.(check string)
                "replayed response byte-identical to direct execute" direct
                got;
              check_true "answered from the replay table"
                (counter d "server.journal_deduped" >= 1)));
      (* A graceful stop retires everything: nothing left to replay. *)
      let j2 = Server.Journal.open_ jdir in
      Alcotest.(check int)
        "journal drained" 0
        (List.length (Server.Journal.pending j2));
      Server.Journal.close j2)

let test_drain_retires_before_shutdown () =
  let sock = tmp_sock () in
  let jdir = temp_dir "wal_drain" in
  Fun.protect
    ~finally:(fun () -> rm_rf jdir)
    (fun () ->
      let d = Server.Daemon.start (daemon_config ~journal_dir:jdir sock) in
      let c = Server.Client.connect (Server.Client.Unix_path sock) in
      List.iter
        (fun i ->
          match Server.Client.call_raw c (delay_req i (40.0 +. float_of_int i)) with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "call %d failed: %s" i m)
        [ 1; 2; 3 ];
      Server.Client.close c;
      Server.Daemon.stop d;
      (* Regression for the drain/retirement race: every response that
         was flushed before shutdown must be retired before the journal
         closes, or the next start replays ghosts. *)
      let j = Server.Journal.open_ jdir in
      Alcotest.(check int)
        "no pending after drain" 0
        (List.length (Server.Journal.pending j));
      Alcotest.(check int)
        "nothing to replay" 0
        (Server.Journal.stats j).Server.Journal.replayed;
      Server.Journal.close j)

let status_of doc =
  match Server.Json.member "status" doc with
  | Some (Server.Json.Str s) -> s
  | _ -> "?"

let test_health_ok_then_draining () =
  let sock = tmp_sock () in
  let d = Server.Daemon.start (daemon_config sock) in
  Alcotest.(check string) "ok while serving" "ok"
    (status_of (Server.Daemon.health d));
  Server.Daemon.stop d;
  let doc = Server.Daemon.health d in
  Alcotest.(check string) "draining after stop" "draining" (status_of doc);
  match Server.Json.member "reasons" doc with
  | Some (Server.Json.Arr l) ->
      check_true "reason listed" (List.mem (Server.Json.Str "draining") l)
  | _ -> Alcotest.fail "health carries no reasons array"

let test_retry_dedups_on_digest () =
  let sock = tmp_sock () in
  let jdir = temp_dir "wal_retry" in
  Fun.protect
    ~finally:(fun () -> rm_rf jdir)
    (fun () ->
      let d = Server.Daemon.start (daemon_config ~journal_dir:jdir sock) in
      Fun.protect
        ~finally:(fun () -> Server.Daemon.stop d)
        (fun () ->
          let addr = Server.Client.Unix_path sock in
          let req = delay_req 77 80.0 in
          let digest_of r =
            Server.Journal.digest
              (Server.Json.to_string (Server.Protocol.request_to_json r))
          in
          let dg = digest_of req in
          Alcotest.(check int) "digest is 32 hex chars" 32 (String.length dg);
          Alcotest.(check string)
            "digest is stable across renderings" dg (digest_of req);
          let first =
            match Server.Client.call_raw_with_retry addr req with
            | Ok b -> b
            | Error e ->
                Alcotest.failf "first attempt: %s"
                  (retry_failure e)
          in
          let before = counter d "server.journal_deduped" in
          (* A retry of the same logical request on a fresh connection:
             rendered once, byte-identical payload, same digest — the
             server answers from its dedup table without re-executing
             and without a byte of drift. *)
          let again =
            match Server.Client.call_raw_with_retry addr req with
            | Ok b -> b
            | Error e ->
                Alcotest.failf "second attempt: %s"
                  (retry_failure e)
          in
          Alcotest.(check string) "retried response byte-identical" first
            again;
          check_true "answered from the dedup table"
            (counter d "server.journal_deduped" > before)))

(* ------------------------------------------------------------------ *)
(* Watchdog *)

let test_watchdog_trips_when_wedged () =
  let sock = tmp_sock () in
  let tripped = Atomic.make 0 in
  let d =
    Server.Daemon.start
      (daemon_config ~watchdog_s:0.05
         ~on_wedged:(fun () -> Atomic.incr tripped)
         sock)
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop d)
    (fun () ->
      (* Wedge the solve thread: a sweep monopolises the batcher while
         singles queue behind it, so the progress counter freezes with
         work queued — exactly the condition the watchdog polices. *)
      let sweep =
        Thread.create
          (fun () ->
            let c = Server.Client.connect (Server.Client.Unix_path sock) in
            let req =
              {
                Server.Protocol.id = 1;
                query =
                  Server.Protocol.Montecarlo
                    { config = "i"; samples = 400; seed = 7;
                      prune_tol_ps = 0.0 };
                deadline_ms = None;
              }
            in
            ignore (Server.Client.call_raw c req);
            Server.Client.close c)
          ()
      in
      Thread.delay 0.02;
      let filler =
        Thread.create
          (fun () ->
            let c = Server.Client.connect (Server.Client.Unix_path sock) in
            List.iter
              (fun i ->
                ignore
                  (Server.Client.call_raw c
                     (delay_req (100 + i) (50.0 +. float_of_int i))))
              [ 1; 2; 3 ];
            Server.Client.close c)
          ()
      in
      wait_for ~timeout_s:30.0 "watchdog trip" (fun () ->
          Atomic.get tripped > 0);
      Thread.join sweep;
      Thread.join filler;
      check_true "trip metric published"
        (counter d "server.watchdog_trips" >= 1))

(* ------------------------------------------------------------------ *)
(* Supervisor *)

(* The supervisor forks, and OCaml 5 forbids fork once other domains
   exist (the engine pools above create them) — so the drill runs in
   its own single-threaded process, exactly like production.
   [Unix.create_process] is posix_spawn-based and domain-safe. *)
let run_drill args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "sup_drill.exe"
  in
  check_true "sup_drill.exe built" (Sys.file_exists exe);
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let code = reap () in
  close_in ic;
  (code, line)

let test_supervisor_restarts_then_clean () =
  let pid_file = Filename.temp_file "sta_sup" ".pid" in
  let code, line = run_drill [ "clean"; pid_file ] in
  Alcotest.(check int) "drill exits zero" 0 code;
  (* The child crashes twice, then drains cleanly: two respawns, three
     incarnations observed by on_spawn. *)
  Alcotest.(check string) "two respawns then clean" "clean 2 3" line;
  check_true "pid file removed on the way out"
    (not (Sys.file_exists pid_file))

let test_supervisor_gives_up_on_crash_loop () =
  let code, line = run_drill [ "loop" ] in
  Alcotest.(check int) "drill exits zero" 0 code;
  (* Budget 2: three consecutive fast crashes (two respawns) and the
     supervisor refuses to restart-storm. *)
  Alcotest.(check string) "crash-loop budget trips" "gaveup 2 3 3" line

(* ------------------------------------------------------------------ *)

let suite =
  ( "crash",
    [
      case "crc32 known vector" test_crc32_vector;
      qcheck_record_scan;
      case "full disk publishes nothing" test_full_disk_publishes_nothing;
      case "journal roundtrip and compaction" test_journal_roundtrip;
      case "journal torn tail" test_journal_torn_tail;
      case "journal crc-corrupt record" test_journal_crc_corrupt_record;
      case "journal duplicate retire" test_journal_duplicate_retire;
      qcheck_replay_idempotent;
      case "hostile wal corpus" test_wal_corpus;
      case "cache scrub" test_cache_scrub;
      case "restart answers from the disk cache"
        test_restart_answers_from_disk;
      slow_case "daemon replays unretired journal" test_daemon_replays_journal;
      slow_case "drain retires before shutdown"
        test_drain_retires_before_shutdown;
      case "health ok then draining" test_health_ok_then_draining;
      slow_case "retry dedups on request digest" test_retry_dedups_on_digest;
      slow_case "watchdog trips when wedged" test_watchdog_trips_when_wedged;
      slow_case "supervisor restarts then clean"
        test_supervisor_restarts_then_clean;
      slow_case "supervisor gives up on crash loop"
        test_supervisor_gives_up_on_crash_loop;
    ] )
