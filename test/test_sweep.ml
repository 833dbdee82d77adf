(* Branch-and-bound alignment search and the disk cache: tol=0
   byte-identity, within-tol pruning, cache entries of older formats
   as misses, LRU eviction, checkpoint CRC recovery. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Branch-and-bound alignment search (simulation-backed; slow)         *)

(* Small grids keep the transient count test-sized; dt matches the
   fast scenario the noise suite uses. *)
let scenario_of_seed seed n =
  let slew = 120e-12 +. (float_of_int (seed mod 5) *. 20e-12) in
  {
    (Noise.Scenario.with_cases Noise.Scenario.config_i n) with
    Noise.Scenario.input_slew = slew;
    dt = 4e-12;
  }

let fresh_engine () =
  Runtime.Engine.with_cache Runtime.Engine.reference
    (Runtime.Cache.create ())

let exhaustive_delays scen ~noiseless =
  let engine = fresh_engine () in
  Array.map
    (fun tau -> Noise.Alignment.delay_at ~engine scen ~noiseless ~tau)
    (Noise.Scenario.taus scen)

let test_bnb_tol0_byte_identical =
  qcase ~count:2 "alignment: tol=0 is the exhaustive sweep, byte-for-byte"
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let scen = scenario_of_seed seed (10 + (seed mod 3)) in
      let noiseless = Noise.Injection.noiseless scen in
      let expected = exhaustive_delays scen ~noiseless in
      let r =
        Noise.Alignment.search ~engine:(fresh_engine ()) scen ~noiseless
      in
      let n = Array.length expected in
      if r.Noise.Alignment.stats.Noise.Alignment.solved <> n then
        QCheck2.Test.fail_reportf "expected %d solves, got %d" n
          r.Noise.Alignment.stats.Noise.Alignment.solved;
      if r.Noise.Alignment.stats.Noise.Alignment.pruned <> 0 then
        QCheck2.Test.fail_report "tol=0 must prune nothing";
      Array.iteri
        (fun i d ->
          match r.Noise.Alignment.delays.(i) with
          | Some got when got = d -> ()
          | Some got ->
              QCheck2.Test.fail_reportf
                "delay %d drifted: %.17g vs %.17g" i got d
          | None -> QCheck2.Test.fail_reportf "index %d not solved" i)
        expected;
      let best = ref 0 in
      Array.iteri (fun i d -> if d > expected.(!best) then best := i) expected;
      if r.Noise.Alignment.best_index <> !best then
        QCheck2.Test.fail_reportf "best index %d, exhaustive %d"
          r.Noise.Alignment.best_index !best;
      true)

let test_bnb_pruned_within_tol () =
  let scen =
    { (Noise.Scenario.with_cases Noise.Scenario.config_ii 14) with dt = 4e-12 }
  in
  let noiseless = Noise.Injection.noiseless scen in
  let expected = exhaustive_delays scen ~noiseless in
  let tol_ps = 2.0 in
  let config =
    { Noise.Alignment.default with prune_tol_ps = tol_ps; coarse = 5 }
  in
  let r =
    Noise.Alignment.search ~config ~engine:(fresh_engine ()) scen ~noiseless
  in
  let stats = r.Noise.Alignment.stats in
  Alcotest.(check int)
    "solved + pruned covers the grid" (Array.length expected)
    (stats.Noise.Alignment.solved + stats.Noise.Alignment.pruned);
  check_true "pruned at least one alignment" (stats.Noise.Alignment.pruned > 0);
  (* Every alignment actually solved matches the exhaustive sweep
     exactly; the worst case is within the coverage slack. *)
  Array.iteri
    (fun i -> function
      | Some got ->
          if got <> expected.(i) then
            Alcotest.failf "solved index %d not byte-identical" i
      | None -> ())
    r.Noise.Alignment.delays;
  let true_max = Array.fold_left Float.max neg_infinity expected in
  check_true "worst case within prune_tol_ps"
    (true_max -. r.Noise.Alignment.best_delay <= tol_ps *. 1e-12)

(* ------------------------------------------------------------------ *)
(* Cache: format migration, LRU eviction                              *)

let temp_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "noisy_sta_sweep_%s_%d_%d" tag (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir tag f =
  let dir = temp_dir tag in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* Entries of older formats are not read: an upgrade migrates each by
   missing on it (a counted read error), reaping it, and storing the
   recomputed value as format 5. Every input is well-formed in its own
   layout — format 2 (magic, CRC-32, payload), format 3 (magic, codec
   byte, CRC-32, payload) and format 4 (magic, one frame holding a
   dense or sparse codec byte and the payload) — so only the version
   retires them. A format-4 sparse entry holds a lossy wave, so serving
   it would change answers. *)
let test_cache_v2_migration () =
  let times = [| 0.0; 1e-12; 2e-12 |] and values = [| 0.0; 0.6; 1.2 |] in
  let payload = Marshal.to_string [ (times, values) ] [] in
  let crc =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Runtime.Crc32.string payload);
    Bytes.to_string b
  in
  let format4 codec =
    Runtime.Record.encode ~magic:"noisy_sta.cache.4\n" [ codec ^ payload ]
  in
  let layouts =
    [
      ("format 2", "noisy_sta.cache.2\n" ^ crc ^ payload);
      ("format 3", "noisy_sta.cache.3\n" ^ "\000" ^ crc ^ payload);
      ("format 4 dense", format4 "\000");
      ("format 4 sparse", format4 "\001");
    ]
  in
  List.iter
    (fun (label, bytes) ->
      with_dir "migrate" @@ fun dir ->
      Unix.mkdir dir 0o755;
      let key =
        Runtime.Cache.Key.make "migration" [ Runtime.Cache.Key.str "1" ]
      in
      let path = Filename.concat dir key in
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let c = Runtime.Cache.create ~disk_dir:dir () in
      check_true (label ^ " entry is a miss") (Runtime.Cache.find c key = None);
      Alcotest.(check int)
        (label ^ ": counted as a read error")
        1
        (Runtime.Cache.read_errors c);
      check_true (label ^ " entry reaped") (not (Sys.file_exists path));
      Runtime.Cache.store c key [ Waveform.Wave.create times values ];
      let magic = "noisy_sta.cache.5\n" in
      let ic = open_in_bin path in
      let head = really_input_string ic (String.length magic) in
      close_in ic;
      Alcotest.(check string) (label ^ ": recomputed entry is format 5") magic
        head;
      match Runtime.Cache.find (Runtime.Cache.create ~disk_dir:dir ()) key with
      | Some [ w ] ->
          Alcotest.(check (array (float 0.0)))
            "times" times (Waveform.Wave.times w);
          Alcotest.(check (array (float 0.0)))
            "values" values (Waveform.Wave.values w)
      | _ -> Alcotest.fail "format-5 entry must decode")
    layouts

(* An upgrade leaves a directory of stale entries. Reading one fails
   its magic, counts a read error and reaps it, but that is a healthy
   disk: the breaker stays closed, every stale entry is read, and every
   recomputed value reaches disk as format 5. Only I/O errors count as
   breaker failures. *)
let test_cache_stale_entries_keep_breaker_closed () =
  with_dir "stale" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let times = [| 0.0; 1e-12; 2e-12 |] and values = [| 0.0; 0.6; 1.2 |] in
  let stale =
    Runtime.Record.encode ~magic:"noisy_sta.cache.4\n"
      [ "\000" ^ Marshal.to_string [ (times, values) ] [] ]
  in
  let keys =
    List.init 12 (fun i ->
        Runtime.Cache.Key.(make "stale" [ str (string_of_int i) ]))
  in
  List.iter
    (fun key ->
      let oc = open_out_bin (Filename.concat dir key) in
      output_string oc stale;
      close_out oc)
    keys;
  let c = Runtime.Cache.create ~disk_dir:dir () in
  List.iter
    (fun key ->
      check_true "stale entry is a miss" (Runtime.Cache.find c key = None))
    keys;
  List.iter
    (fun key ->
      Runtime.Cache.store c key [ Waveform.Wave.create times values ])
    keys;
  Alcotest.(check int) "every stale entry read" 12
    (Runtime.Cache.read_errors c);
  Alcotest.(check int) "breaker never opened" 0
    (Runtime.Cache.breaker_opens c);
  let magic = "noisy_sta.cache.5\n" in
  let format5 =
    List.filter
      (fun key ->
        let ic = open_in_bin (Filename.concat dir key) in
        let head = really_input_string ic (String.length magic) in
        close_in ic;
        head = magic)
      keys
  in
  Alcotest.(check int) "every recomputed entry on disk" 12
    (List.length format5)

let test_cache_lru_eviction () =
  with_dir "lru" @@ fun dir ->
  let wave i =
    Waveform.Wave.create
      (Array.init 400 (fun j -> float_of_int j *. 1e-12))
      (lcg_array i 400 0.0 1.2)
  in
  (* Cap low enough that a handful of ~7 kB entries overflows it. *)
  let cap = 16 * 1024 in
  let c = Runtime.Cache.create ~disk_dir:dir ~max_disk_bytes:cap () in
  for i = 1 to 8 do
    Runtime.Cache.store c
      Runtime.Cache.Key.(make "lru" [ str (string_of_int i) ])
      [ wave i ]
  done;
  check_true "evicted something" (Runtime.Cache.evictions c > 0);
  check_true "resident bytes under the cap" (Runtime.Cache.disk_bytes c <= cap);
  (* The newest entry must have survived the LRU sweep. *)
  let c2 = Runtime.Cache.create ~disk_dir:dir () in
  check_true "newest entry survives"
    (Option.is_some
       (Runtime.Cache.find c2
          (Runtime.Cache.Key.make "lru" [ Runtime.Cache.Key.str "8" ])));
  (* disk_bytes is re-seeded by a directory walk on a fresh instance. *)
  Alcotest.(check int)
    "gauge matches a fresh walk" (Runtime.Cache.disk_bytes c)
    (Runtime.Cache.disk_bytes c2)

(* ------------------------------------------------------------------ *)
(* Checkpoint format 2: CRC catches bit rot                            *)

let test_checkpoint_crc_recovery () =
  with_dir "ckpt" @@ fun dir ->
  let t = Runtime.Checkpoint.open_ ~dir ~name:"sweep" ~fingerprint:"fp1" in
  Runtime.Checkpoint.record t 0 (3.14, "case zero");
  Runtime.Checkpoint.record t 1 (2.71, "case one");
  (match Runtime.Checkpoint.find t 0 with
  | Some (d, s) ->
      approx "payload float" 3.14 d;
      Alcotest.(check string) "payload string" "case zero" s
  | None -> Alcotest.fail "entry 0 must replay");
  (* Flip one payload byte in an entry file: find must reject it via
     the CRC, unlink it, and report it as missing. *)
  let jdir = Filename.concat dir "sweep" in
  let entry =
    Filename.concat jdir
      (List.find
         (fun f -> String.length f > 4 && String.sub f 0 4 = "case")
         (Array.to_list (Sys.readdir jdir) |> List.sort compare))
  in
  let ic = open_in_bin entry in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string raw in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
  let oc = open_out_bin entry in
  output_bytes oc b;
  close_out oc;
  check_true "torn entry rejected"
    ((Runtime.Checkpoint.find t 0 : (float * string) option) = None);
  check_true "torn entry unlinked" (not (Sys.file_exists entry));
  (* The other entry is untouched. *)
  check_true "sibling survives"
    (Option.is_some (Runtime.Checkpoint.find t 1 : (float * string) option))

(* Golden: the worst-aggressor search the worstcase workload runs, on
   the nominal configurations at a 24-point grid, pruned (2 ps) and
   exhaustive. Its best delay and alignment are [%h] renderings, and the
   solved indices show which alignments pruning kept. Taken before the
   LU's triangular solves learned to skip zero entries. *)
let golden_search () =
  List.concat_map
    (fun scen ->
      let scen = Noise.Scenario.with_cases scen 24 in
      let noiseless = Noise.Injection.noiseless scen in
      List.map
        (fun tol ->
          let config = { Noise.Alignment.default with prune_tol_ps = tol } in
          let r =
            Noise.Alignment.search ~config ~engine:(fresh_engine ()) scen
              ~noiseless
          in
          let solved =
            List.filter
              (fun i -> r.Noise.Alignment.delays.(i) <> None)
              (List.init (Array.length r.Noise.Alignment.delays) Fun.id)
          in
          Printf.sprintf "%s, tol %g ps: best %d, tau %h, delay %h, solved %s"
            scen.Noise.Scenario.name tol r.Noise.Alignment.best_index
            r.Noise.Alignment.best_tau r.Noise.Alignment.best_delay
            (String.concat "," (List.map string_of_int solved)))
        [ 2.0; 0.0 ])
    Noise.Scenario.[ config_i; config_ii ]

let golden_search_pinned =
  [
    "Configuration I, tol 2 ps: best 17, tau 0x1.3e9e8d939ee0ap-30, delay \
     0x1.7a07b8bca3a6p-35, solved 0,3,6,9,12,14,17,20,23";
    "Configuration I, tol 0 ps: best 19, tau 0x1.5685930322d39p-30, delay \
     0x1.0fae540536cfp-34, solved \
     0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23";
    "Configuration II, tol 2 ps: best 20, tau 0x1.627915bae4cdp-30, delay \
     0x1.bb5a81c73084p-35, solved 0,3,6,9,12,14,17,18,20,21,22,23";
    "Configuration II, tol 0 ps: best 5, tau 0x1.5e68d9ed0e5e9p-31, delay \
     0x1.bb5a9ce2f91cp-35, solved \
     0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23";
  ]

let test_golden_search () =
  let got = golden_search () in
  if got <> golden_search_pinned then
    Alcotest.failf "search moved:\n%s"
      (String.concat "\n" (List.map (Printf.sprintf "%S;") got))

let suite =
  ( "sweep",
    [
      test_bnb_tol0_byte_identical;
      slow_case "alignment: pruned search within tol" test_bnb_pruned_within_tol;
      slow_case "golden: pruned alignment search" test_golden_search;
      case "cache: format-2 entries migrate" test_cache_v2_migration;
      case "cache: stale entries keep the breaker closed"
        test_cache_stale_entries_keep_breaker_closed;
      case "cache: LRU eviction under cap" test_cache_lru_eviction;
      case "checkpoint: CRC catches bit rot" test_checkpoint_crc_recovery;
    ] )
