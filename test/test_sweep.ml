(* Branch-and-bound alignment search and sparse waveform storage:
   tol=0 byte-identity, within-tol pruning, Sparse round-trip
   properties, cache format-2 and -3 entries as misses, sparse disk layer,
   LRU eviction, checkpoint CRC recovery. *)

open Helpers

let th = Device.Process.thresholds Device.Process.c13

let levels =
  Waveform.Thresholds.[ v_low th; v_mid th; v_high th ]

(* ------------------------------------------------------------------ *)
(* Waveform.Sparse properties                                          *)

(* Deterministic pseudo-random wave: a rail-to-rail ramp with seeded
   wobble, so every QCheck draw crosses all three thresholds. *)
let wobbly_wave seed n =
  let vdd = th.Waveform.Thresholds.vdd in
  let times = Array.init n (fun i -> float_of_int i *. 1e-12) in
  let noise = lcg_array seed n (-0.04) 0.04 in
  let values =
    Array.init n (fun i ->
        let ramp = vdd *. float_of_int i /. float_of_int (n - 1) in
        Float.max 0.0 (Float.min vdd (ramp +. noise.(i))))
  in
  Waveform.Wave.create times values

let test_sparse_roundtrip_props =
  qcase ~count:50 "sparse: round-trip within eps, crossings exact"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 16 400))
    (fun (seed, n) ->
      let w = wobbly_wave seed n in
      let c = Waveform.Sparse.compress ~levels w in
      let err = Waveform.Sparse.max_error ~original:w ~decoded:c in
      if err > Waveform.Sparse.default_eps then
        QCheck2.Test.fail_reportf "max error %.2e above eps" err;
      List.iter
        (fun level ->
          let orig = Waveform.Wave.crossings w level in
          let dec = Waveform.Wave.crossings c level in
          if
            List.length orig <> List.length dec
            || not (List.for_all2 (fun a b -> a = b) orig dec)
          then
            QCheck2.Test.fail_reportf
              "crossings at %.3f V did not round-trip exactly" level)
        levels;
      true)

let test_sparse_shrinks () =
  (* A long, smooth edge must actually compress. *)
  let n = 2000 in
  let vdd = th.Waveform.Thresholds.vdd in
  let times = Array.init n (fun i -> float_of_int i *. 1e-12) in
  let values =
    Array.init n (fun i ->
        vdd /. (1.0 +. exp (-0.01 *. float_of_int (i - (n / 2)))))
  in
  let w = Waveform.Wave.create times values in
  let c = Waveform.Sparse.compress ~levels w in
  check_true "at least 10x fewer samples"
    (Waveform.Sparse.ratio ~original:w ~compressed:c >= 10.0);
  check_true "error within eps"
    (Waveform.Sparse.max_error ~original:w ~decoded:c
    <= Waveform.Sparse.default_eps)

let test_sparse_rejects_bad_eps () =
  let w = wobbly_wave 7 32 in
  match Waveform.Sparse.compress ~eps:(-1.0) ~levels w with
  | _ -> Alcotest.fail "negative eps must raise"
  | exception Invalid_argument _ -> ()

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
(* Cache: format migration, sparse disk layer, LRU eviction            *)

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
   recomputed value as format 4. Both inputs are well-formed in their
   own layout — format 2 (magic, CRC-32, payload) and format 3 (magic,
   codec byte, CRC-32, payload) — so only the version retires them. *)
let test_cache_v2_migration () =
  let times = [| 0.0; 1e-12; 2e-12 |] and values = [| 0.0; 0.6; 1.2 |] in
  let payload = Marshal.to_string [ (times, values) ] [] in
  let crc =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Runtime.Crc32.string payload);
    Bytes.to_string b
  in
  let layouts =
    [
      ("format 2", "noisy_sta.cache.2\n" ^ crc ^ payload);
      ("format 3", "noisy_sta.cache.3\n" ^ "\000" ^ crc ^ payload);
    ]
  in
  List.iter
    (fun (label, bytes) ->
      with_dir "migrate" @@ fun dir ->
      Unix.mkdir dir 0o755;
      let key =
        Runtime.Cache.Key.make "migration" [ Runtime.Cache.Key.int 1 ]
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
      let magic = "noisy_sta.cache.4\n" in
      let ic = open_in_bin path in
      let head = really_input_string ic (String.length magic) in
      close_in ic;
      Alcotest.(check string) (label ^ ": recomputed entry is format 4") magic
        head;
      match Runtime.Cache.find (Runtime.Cache.create ~disk_dir:dir ()) key with
      | Some [ w ] ->
          Alcotest.(check (array (float 0.0)))
            "times" times (Waveform.Wave.times w);
          Alcotest.(check (array (float 0.0)))
            "values" values (Waveform.Wave.values w)
      | _ -> Alcotest.fail "format-4 entry must decode")
    layouts

let test_cache_sparse_disk_roundtrip () =
  with_dir "sparse" @@ fun dir ->
  let w = wobbly_wave 42 600 in
  let key = Runtime.Cache.Key.make "sparse-rt" [ Runtime.Cache.Key.int 3 ] in
  let c1 = Runtime.Cache.create ~disk_dir:dir ~sparse_levels:levels () in
  check_true "sparsification on" (Runtime.Cache.sparse_enabled c1);
  Runtime.Cache.store c1 key [ w ];
  check_true "bytes written counted" (Runtime.Cache.bytes_written c1 > 0);
  (* The in-memory copy stays dense. *)
  (match Runtime.Cache.find c1 key with
  | Some [ m ] ->
      Alcotest.(check int)
        "memory copy dense"
        (Array.length (Waveform.Wave.times w))
        (Array.length (Waveform.Wave.times m))
  | _ -> Alcotest.fail "memory layer lost the entry");
  (* A fresh process sees the sparse copy: smaller, crossing-exact,
     within eps everywhere. *)
  let c2 = Runtime.Cache.create ~disk_dir:dir ~sparse_levels:levels () in
  (match Runtime.Cache.find c2 key with
  | Some [ d ] ->
      check_true "disk copy is smaller"
        (Array.length (Waveform.Wave.times d)
        < Array.length (Waveform.Wave.times w));
      check_true "within eps"
        (Waveform.Sparse.max_error ~original:w ~decoded:d
        <= Waveform.Sparse.default_eps);
      List.iter
        (fun level ->
          check_true "crossing round-trips"
            (Waveform.Wave.crossings w level = Waveform.Wave.crossings d level))
        levels
  | _ -> Alcotest.fail "disk round-trip failed");
  (* A plain cache on the same dir decodes format 3 sparse entries. *)
  let c3 = Runtime.Cache.create ~disk_dir:dir () in
  check_true "codec is self-describing"
    (Option.is_some (Runtime.Cache.find c3 key))

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
      (Runtime.Cache.Key.make "lru" [ Runtime.Cache.Key.int i ])
      [ wave i ]
  done;
  check_true "evicted something" (Runtime.Cache.evictions c > 0);
  check_true "resident bytes under the cap" (Runtime.Cache.disk_bytes c <= cap);
  (* The newest entry must have survived the LRU sweep. *)
  let c2 = Runtime.Cache.create ~disk_dir:dir () in
  check_true "newest entry survives"
    (Option.is_some
       (Runtime.Cache.find c2
          (Runtime.Cache.Key.make "lru" [ Runtime.Cache.Key.int 8 ])));
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
  Alcotest.(check int) "two recorded" 2 (Runtime.Checkpoint.completed t);
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

let suite =
  ( "sweep",
    [
      test_sparse_roundtrip_props;
      case "sparse: long edge compresses 10x" test_sparse_shrinks;
      case "sparse: negative eps rejected" test_sparse_rejects_bad_eps;
      test_bnb_tol0_byte_identical;
      slow_case "alignment: pruned search within tol" test_bnb_pruned_within_tol;
      case "cache: format-2 entries migrate" test_cache_v2_migration;
      case "cache: sparse disk round-trip" test_cache_sparse_disk_roundtrip;
      case "cache: LRU eviction under cap" test_cache_lru_eviction;
      case "checkpoint: CRC catches bit rot" test_checkpoint_crc_recovery;
    ] )
