open Helpers

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_map_matches_sequential () =
  with_pool ~jobs:4 (fun pool ->
      let f i = (i * 37) mod 101 in
      Alcotest.(check (array int))
        "map = Array.init" (Array.init 1000 f)
        (Runtime.Pool.map pool 1000 f);
      (* Chunk boundaries must not shift results. *)
      Alcotest.(check (array int))
        "chunk=1" (Array.init 97 f)
        (Runtime.Pool.map ~chunk:1 pool 97 f);
      Alcotest.(check (array int))
        "chunk=1000" (Array.init 97 f)
        (Runtime.Pool.map ~chunk:1000 pool 97 f);
      Alcotest.(check (array int)) "empty" [||] (Runtime.Pool.map pool 0 f))

let test_pool_map_list_order () =
  (* Harnesses fan a list of cases out by index through the engine;
     with a batch width that does not divide the list, the pooled
     results still come back in list order. *)
  with_pool ~jobs:3 (fun pool ->
      let xs = Array.of_list (List.init 53 (fun i -> i)) in
      let e =
        Runtime.Engine.with_batch
          (Runtime.Engine.with_pool Runtime.Engine.reference pool)
          5
      in
      Alcotest.(check (list int))
        "order preserved"
        (List.map (fun x -> x * x) (Array.to_list xs))
        (Array.to_list
           (Runtime.Engine.submit_batch e (Array.length xs) (fun i ->
                xs.(i) * xs.(i)))))

let test_pool_map_reduce_in_order () =
  with_pool ~jobs:4 (fun pool ->
      (* A non-commutative reduce over the pooled results: string
         concatenation. Only in-order collection gives the sequential
         answer. *)
      let expect = String.concat "" (List.init 40 string_of_int) in
      let got =
        Array.fold_left ( ^ ) "" (Runtime.Pool.map ~chunk:1 pool 40 string_of_int)
      in
      Alcotest.(check string) "deterministic reduce" expect got)

let test_pool_sequential_fallbacks () =
  with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamped" 1 (Runtime.Pool.jobs pool);
      Alcotest.(check (array int))
        "jobs=1 works" (Array.init 10 succ)
        (Runtime.Pool.map pool 10 succ));
  Alcotest.(check (array int))
    "no pool = sequential" (Array.init 10 succ)
    (Runtime.Pool.maybe_map None 10 succ)

let test_pool_exception_propagates () =
  with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "job exception resurfaces"
        (Failure "boom 7")
        (fun () ->
          ignore
            (Runtime.Pool.map ~chunk:1 pool 16 (fun i ->
                 if i = 7 then failwith "boom 7" else i)));
      (* The pool survives a failed sweep. *)
      Alcotest.(check (array int))
        "pool reusable" (Array.init 8 succ)
        (Runtime.Pool.map pool 8 succ))

let test_pool_qcheck_matches_init =
  qcase ~count:20 "pool: map equals Array.init"
    QCheck2.Gen.(pair (int_bound 200) (int_bound 1000))
    (fun (n, salt) ->
      let f i = (i * 131) lxor salt in
      with_pool ~jobs:4 (fun pool ->
          Runtime.Pool.map pool n f = Array.init n f))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let wave_a = Waveform.Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 0.5; 1.0 |]
let wave_b = Waveform.Wave.create [| 0.0; 1.0; 2.0 |] [| 0.0; 0.5; 1.1 |]

let test_cache_key_stability () =
  let open Runtime.Cache.Key in
  let k () = make "tag" [ str "a"; bool true; float 1.5 ] in
  Alcotest.(check string) "same parts, same key" (k ()) (k ());
  let base = k () in
  let differs what parts =
    check_true (what ^ " changes the key") (make "tag" parts <> base)
  in
  check_true "different tag"
    (make "other" [ str "a"; bool true; float 1.5 ] <> base);
  differs "str" [ str "b"; bool true; float 1.5 ];
  differs "bool" [ str "a"; bool false; float 1.5 ];
  differs "float" [ str "a"; bool true; float 1.5000001 ];
  (* Part boundaries may not be ambiguous: ["ab"] vs ["a";"b"]. *)
  check_true "no concatenation ambiguity"
    (make "t" [ str "ab" ] <> make "t" [ str "a"; str "b" ])

let test_cache_hit_miss_accounting () =
  let c = Runtime.Cache.create ~shards:4 () in
  let key = Runtime.Cache.Key.make "t" [ Runtime.Cache.Key.str "1" ] in
  let computes = ref 0 in
  let compute () =
    incr computes;
    [ wave_a ]
  in
  let r1 = Runtime.Cache.memo c key compute in
  let r2 = Runtime.Cache.memo c key compute in
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check int) "one miss" 1 (Runtime.Cache.misses c);
  Alcotest.(check int) "one hit" 1 (Runtime.Cache.hits c);
  Alcotest.(check int) "resident" 1 (Runtime.Cache.length c);
  check_true "hit returns the stored value" (r1 == r2);
  (* Round-trip preserves the samples. *)
  (match r2 with
  | [ w ] ->
      Alcotest.(check (array (float 0.0)))
        "values" (Waveform.Wave.values wave_a) (Waveform.Wave.values w)
  | _ -> Alcotest.fail "wrong shape")

let temp_cache_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "noisy_sta_cache_test_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  dir

let test_cache_disk_layer () =
  let dir = temp_cache_dir () in
  let key = Runtime.Cache.Key.make "disk" [ Runtime.Cache.Key.str "42" ] in
  let c1 = Runtime.Cache.create ~disk_dir:dir () in
  let _ = Runtime.Cache.memo c1 key (fun () -> [ wave_a; wave_b ]) in
  Alcotest.(check int) "first run misses" 1 (Runtime.Cache.misses c1);
  (* A fresh cache instance (a new process, morally) hits via disk. *)
  let c2 = Runtime.Cache.create ~disk_dir:dir () in
  let computes = ref 0 in
  let r =
    Runtime.Cache.memo c2 key (fun () ->
        incr computes;
        [ wave_a ])
  in
  Alcotest.(check int) "no recompute" 0 !computes;
  Alcotest.(check int) "disk hit counted" 1 (Runtime.Cache.disk_hits c2);
  Alcotest.(check int) "hit counted" 1 (Runtime.Cache.hits c2);
  (match r with
  | [ a; b ] ->
      Alcotest.(check (array (float 0.0)))
        "wave 1 times" (Waveform.Wave.times wave_a) (Waveform.Wave.times a);
      Alcotest.(check (array (float 0.0)))
        "wave 2 values" (Waveform.Wave.values wave_b) (Waveform.Wave.values b)
  | _ -> Alcotest.fail "wrong shape from disk");
  (* Corrupt file: treated as a miss, then overwritten. *)
  let path = Filename.concat dir key in
  let oc = open_out_bin path in
  output_string oc "garbage";
  close_out oc;
  let c3 = Runtime.Cache.create ~disk_dir:dir () in
  let r3 = Runtime.Cache.memo c3 key (fun () -> [ wave_b ]) in
  Alcotest.(check int) "corrupt file misses" 1 (Runtime.Cache.misses c3);
  check_true "recomputed" (List.length r3 = 1);
  (* Clean up. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_cache_parallel_memo () =
  (* Many domains hammering one cache: accounting stays consistent and
     every caller sees the same value. *)
  let c = Runtime.Cache.create ~shards:4 () in
  with_pool ~jobs:4 (fun pool ->
      let results =
        Runtime.Pool.map ~chunk:1 pool 32 (fun i ->
            let key =
              Runtime.Cache.Key.(make "par" [ str (string_of_int (i mod 4)) ])
            in
            Runtime.Cache.memo c key (fun () ->
                [ Waveform.Wave.create [| 0.0; 1.0 |]
                    [| float_of_int (i mod 4); 1.0 |] ]))
      in
      Alcotest.(check int) "32 lookups" 32
        (Runtime.Cache.hits c + Runtime.Cache.misses c);
      check_true "at most 4 resident" (Runtime.Cache.length c <= 4);
      (* Whatever the race outcome, key i mod 4 determines the value. *)
      Array.iteri
        (fun i r ->
          match r with
          | [ w ] ->
              approx "stable value"
                (float_of_int (i mod 4))
                (Waveform.Wave.values w).(0)
          | _ -> Alcotest.fail "shape")
        results)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counters_and_report () =
  let m = Runtime.Metrics.create () in
  Runtime.Metrics.incr m "a.count";
  Runtime.Metrics.incr ~n:4 m "a.count";
  Runtime.Metrics.set m "b.gauge" 7;
  Runtime.Metrics.add_time m "stage.x" 0.25;
  Alcotest.(check (list (pair string int)))
    "counters sorted"
    [ ("a.count", 5); ("b.gauge", 7) ]
    (Runtime.Metrics.counters m);
  (match Runtime.Metrics.timers m with
  | [ ("stage.x", t) ] -> approx "timer" 0.25 t
  | _ -> Alcotest.fail "timer list");
  let report = Format.asprintf "%a" Runtime.Metrics.pp_report m in
  check_true "report mentions counter" (contains "a.count" report)

let test_metrics_time_and_capture () =
  let m = Runtime.Metrics.create () in
  let before = Spice.Transient.Stats.snapshot () in
  Alcotest.(check int) "time returns" 3
    (Runtime.Metrics.time m "stage.t" (fun () -> 3));
  check_true "timer recorded"
    (List.mem_assoc "stage.t" (Runtime.Metrics.timers m));
  (* A tiny RC transient moves the spice counters. *)
  let ckt = Spice.Circuit.create () in
  let a = Spice.Circuit.node ckt "a" in
  let b = Spice.Circuit.node ckt "b" in
  Spice.Circuit.vsource ckt a (Spice.Source.ramp ~t0:1e-10 ~v0:0.0 ~v1:1.0 ~trans:1e-10);
  Spice.Circuit.resistor ckt a b 1000.0;
  Spice.Circuit.capacitor ckt b (Spice.Circuit.gnd ckt) 1e-13;
  let config =
    { Spice.Transient.default_config with dt = 1e-11; tstop = 1e-9 }
  in
  ignore (Spice.Transient.run ~config ckt);
  Runtime.Metrics.capture_spice ~since:before m;
  let cs = Runtime.Metrics.counters m in
  Alcotest.(check int) "one sim since baseline" 1 (List.assoc "spice.sims" cs);
  check_true "steps counted" (List.assoc "spice.steps" cs > 0);
  check_true "newton iterations counted"
    (List.assoc "spice.newton_iters" cs > 0)

(* ------------------------------------------------------------------ *)
(* Solver-config fingerprint: the cache-key ingredient must react to
   EVERY field, or stale results would be served after a config tweak. *)

let test_config_fingerprint_exhaustive () =
  let open Spice.Transient in
  let base = with_adaptive default_config in
  let fp = config_fingerprint in
  let differs what cfg =
    check_true (what ^ " changes the fingerprint") (fp cfg <> fp base)
  in
  Alcotest.(check string) "deterministic" (fp base) (fp base);
  differs "dt" { base with dt = base.dt *. 2.0 };
  differs "tstop" { base with tstop = base.tstop +. 1e-12 };
  differs "tstart" { base with tstart = base.tstart +. 1e-12 };
  differs "max_newton" { base with max_newton = base.max_newton + 1 };
  differs "max_steps" { base with max_steps = 10_000 };
  differs "step_control" { base with step_control = Fixed };
  differs "jac_reuse" { base with jac_reuse = not base.jac_reuse };
  differs "settle_levels" { base with settle_levels = [ 0.6 ] };
  (* [base] holds the adaptive defaults (mli of [with_adaptive]); each
     value below differs from its default. *)
  differs "lte_tol" (with_adaptive ~lte_tol:1e-3 base);
  differs "dt_min" (with_adaptive ~dt_min:20e-15 base);
  differs "dt_max" (with_adaptive ~dt_max:200e-12 base);
  differs "grow_limit" (with_adaptive ~grow_limit:3.0 base);
  differs "safety" (with_adaptive ~safety:0.45 base);
  differs "crossing_levels" (with_adaptive ~crossing_levels:[ 0.6 ] base);
  differs "crossing_dt" (with_adaptive ~crossing_dt:3e-12 base);
  (* The levels list must not be boundary-ambiguous. *)
  check_true "levels list unambiguous"
    (fp (with_adaptive ~crossing_levels:[ 0.1; 0.5 ] base)
    <> fp (with_adaptive ~crossing_levels:[ 0.1 ] base))

(* The exact key strings of the default config and of every engine
   preset. Disk caches and checkpoint journals are keyed on these, so
   a key must change exactly when the answers under it do: a change
   that keeps every simulated wave bit-identical keeps these strings,
   and one that moves any wave must change them. *)
let test_config_fingerprint_pinned () =
  let fixed =
    "tran.config|0x1.19799812dea11p-40|0x1.12e0be826d695p-28|0x0p+0|trap|"
    ^ "0x1.ad7f29abcaf48p-24|0x1.12e0be826d695p-30|60|0x1.3333333333333p-1|"
    ^ "0x1.19799812dea11p-40|10|0|dense|reuse|fixed"
  in
  let pinned =
    [
      ("default_config", Spice.Transient.default_config, fixed);
      ("reference", Runtime.Engine.(solver reference), fixed);
      ( "accurate",
        Runtime.Engine.(solver accurate),
        "tran.config|0x1.19799812dea11p-40|0x1.12e0be826d695p-28|0x0p+0|trap|"
        ^ "0x1.ad7f29abcaf48p-24|0x1.12e0be826d695p-30|60|"
        ^ "0x1.3333333333333p-1|0x1.19799812dea11p-40|10|0|dense|reuse|"
        ^ "adaptive,0x1.a36e2eb1c432dp-14,0x1.6849b86a12b9bp-47,"
        ^ "0x1.b7cdfd9d7bdbbp-35,0x1p+1,0x1.ccccccccccccdp-1,0x0p+0" );
      ( "fast",
        Runtime.Engine.(solver fast),
        "tran.config|0x1.19799812dea11p-40|0x1.12e0be826d695p-28|0x0p+0|trap|"
        ^ "0x1.ad7f29abcaf48p-24|0x1.12e0be826d695p-30|60|"
        ^ "0x1.3333333333333p-1|0x1.19799812dea11p-40|10|0|dense|reuse|"
        ^ "adaptive,0x1.0624dd2f1a9fcp-10,0x1.6849b86a12b9bp-47,"
        ^ "0x1.b7cdfd9d7bdbbp-33,0x1p+1,0x1.ccccccccccccdp-1,0x0p+0" );
    ]
  in
  List.iter
    (fun (what, cfg, expected) ->
      Alcotest.(check string)
        (what ^ " fingerprint") expected
        (Spice.Transient.config_fingerprint cfg))
    pinned

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_presets_and_of_name () =
  let names = [ "reference"; "accurate"; "fast" ] in
  List.iter
    (fun name ->
      Alcotest.(check string)
        "of_name round-trips" name
        (Runtime.Engine.name (Runtime.Engine.of_name name)))
    names;
  check_true "reference is fixed-grid"
    (not (Runtime.Engine.is_adaptive Runtime.Engine.reference));
  check_true "accurate is adaptive"
    (Runtime.Engine.is_adaptive Runtime.Engine.accurate);
  check_true "fast is adaptive" (Runtime.Engine.is_adaptive Runtime.Engine.fast);
  check_true "presets carry no pool/cache"
    (List.for_all
       (fun name ->
         let e = Runtime.Engine.of_name name in
         Runtime.Engine.pool e = None && Runtime.Engine.cache e = None)
       names);
  (match Runtime.Engine.of_name "warp9" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown engine accepted");
  (* accurate must demand a tighter tolerance than fast. *)
  match
    ( (Runtime.Engine.solver Runtime.Engine.accurate).Spice.Transient.step_control,
      (Runtime.Engine.solver Runtime.Engine.fast).Spice.Transient.step_control )
  with
  | Spice.Transient.Adaptive a, Spice.Transient.Adaptive f ->
      check_true "accurate tighter than fast"
        (a.Spice.Transient.lte_tol < f.Spice.Transient.lte_tol)
  | _ -> Alcotest.fail "adaptive presets lost their step control"

let test_engine_resolve_and_batch () =
  (* No engine: resolve falls back to the reference preset. *)
  let r = Runtime.Engine.resolve None in
  Alcotest.(check string) "defaults to reference" "reference"
    (Runtime.Engine.name r);
  check_true "bare resolve has no pool" (Runtime.Engine.pool r = None);
  check_true "bare resolve has no cache" (Runtime.Engine.cache r = None);
  let e = Runtime.Engine.resolve (Some Runtime.Engine.fast) in
  Alcotest.(check string) "given engine wins" "fast" (Runtime.Engine.name e);
  (* Batch width: default, override, validation. *)
  Alcotest.(check int) "default batch width" 16 (Runtime.Engine.batch e);
  let e8 = Runtime.Engine.with_batch e 8 in
  Alcotest.(check int) "with_batch" 8 (Runtime.Engine.batch e8);
  check_true "batch leaves siblings alone"
    (Runtime.Engine.name e8 = "fast" && Runtime.Engine.batch e = 16);
  (match Runtime.Engine.with_batch e 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "with_batch accepted 0");
  (match Runtime.Engine.make ~batch:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make accepted batch 0");
  (* submit_batch fans out over the engine's pool (or inline without
     one) and keeps results in input order either way. *)
  let expect = Array.init 37 (fun i -> i * i) in
  check_true "submit_batch inline"
    (Runtime.Engine.submit_batch e 37 (fun i -> i * i) = expect);
  with_pool ~jobs:2 (fun pool ->
      let ep = Runtime.Engine.with_pool e8 pool in
      check_true "submit_batch pooled"
        (Runtime.Engine.submit_batch ep 37 (fun i -> i * i) = expect);
      check_true "submit_batch chunk override"
        (Runtime.Engine.submit_batch ~chunk:1 ep 37 (fun i -> i * i) = expect))

let test_engine_setters () =
  let e = Runtime.Engine.make () in
  Alcotest.(check string) "custom name" "custom" (Runtime.Engine.name e);
  let e2 =
    Runtime.Engine.map_solver e (fun c -> Spice.Transient.with_dt c 9e-12)
  in
  approx "map_solver applied" 9e-12 (Runtime.Engine.solver e2).Spice.Transient.dt;
  approx "original untouched" (Runtime.Engine.solver e).Spice.Transient.dt
    Spice.Transient.default_config.Spice.Transient.dt;
  let m = Runtime.Metrics.create () in
  check_true "with_metrics"
    (Runtime.Engine.metrics (Runtime.Engine.with_metrics e m) = Some m)

(* ------------------------------------------------------------------ *)
(* Cli                                                                 *)

let test_cli_int_at_least () =
  let open Cmdliner in
  let at_least_1 = Runtime.Cli.int_at_least 1 in
  let parse = Arg.conv_parser at_least_1 in
  check_true "bound accepted" (parse "1" = Ok 1);
  check_true "above accepted" (parse "200" = Ok 200);
  check_true "below rejected" (Result.is_error (parse "0"));
  check_true "negative rejected" (Result.is_error (parse "-3"));
  check_true "non-integer rejected" (Result.is_error (parse "x"));
  (* Through a command, an out-of-range value is a usage error that
     names the flag, not an exception from inside the run. *)
  let ran = ref false in
  let cmd =
    Cmd.v (Cmd.info "t")
      Term.(
        const (fun (_ : int) -> ran := true)
        $ Arg.(value & opt at_least_1 5 & info [ "cases" ]))
  in
  let buf = Buffer.create 64 in
  let err = Format.formatter_of_buffer buf in
  let code = Cmd.eval ~argv:[| "t"; "--cases"; "0" |] ~err cmd in
  Format.pp_print_flush err ();
  Alcotest.(check int) "usage exit" Cmd.Exit.cli_error code;
  check_true "never ran" (not !ran);
  check_true "names the flag" (contains "--cases" (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* The acceptance property: pooled table sweep == sequential, exactly  *)

let fast_scenario = { Noise.Scenario.config_i with Noise.Scenario.dt = 4e-12 }

let test_parallel_run_table_identical () =
  let scen = Noise.Scenario.with_cases fast_scenario 3 in
  let sequential = Noise.Eval.run_table scen in
  let parallel =
    with_pool ~jobs:4 (fun pool ->
        let engine = Runtime.Engine.with_pool Runtime.Engine.reference pool in
        Noise.Eval.run_table ~engine scen)
  in
  (* Structural equality over the whole table: every row, every case,
     every float bit-identical (compare treats nan = nan). *)
  check_true "tables bit-identical" (compare sequential parallel = 0);
  (* And a cached re-run reproduces it again, entirely from memo hits. *)
  let engine =
    Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ())
  in
  let cache = Option.get (Runtime.Engine.cache engine) in
  let before = Spice.Transient.Stats.snapshot () in
  let first = Noise.Eval.run_table ~engine scen in
  (* A cached engine of batch width > 1 solves the sweep through the
     batch API's pre-solve pass. *)
  check_true "batch path taken"
    Spice.Transient.Stats.((diff (snapshot ()) before).batched_solves > 0);
  let miss0 = Runtime.Cache.misses cache in
  let second = Noise.Eval.run_table ~engine scen in
  check_true "cached table identical" (compare first second = 0);
  check_true "cached run identical to uncached" (compare sequential second = 0);
  Alcotest.(check int) "no new misses on the re-run" miss0
    (Runtime.Cache.misses cache);
  check_true "re-run served from cache" (Runtime.Cache.hits cache > 0)

let test_all_failed_row_reports_zero () =
  (* A technique that always bails must yield an honest all-failed row:
     zero counts, not nan sentinels. *)
  let failing =
    {
      Eqwave.Technique.name = "FAIL";
      describe = "always unsupported (test)";
      applicable = (fun _ -> Ok ());
      run = (fun _ -> raise (Eqwave.Technique.Unsupported "test"));
    }
  in
  let scen = Noise.Scenario.with_cases fast_scenario 1 in
  let table = Noise.Eval.run_table ~techniques:[ failing ] scen in
  match table.Noise.Eval.rows with
  | [ row ] ->
      Alcotest.(check int) "no cases" 0 row.Noise.Eval.n_cases;
      Alcotest.(check int) "one failure" 1 row.Noise.Eval.n_failed;
      (* [approx] cannot flag nan (every nan comparison is false), so
         test exact equality. *)
      check_true "max is 0, not nan" (row.Noise.Eval.max_abs_ps = 0.0);
      check_true "avg is 0, not nan" (row.Noise.Eval.avg_abs_ps = 0.0);
      let rendered = Format.asprintf "%a" Noise.Eval.pp_table table in
      check_true "pp surfaces the failure count"
        (contains "failed" rendered && not (contains "nan" rendered))
  | _ -> Alcotest.fail "expected one row"

let suite =
  ( "runtime",
    [
      case "pool: map matches sequential" test_pool_map_matches_sequential;
      case "pool: list order preserved" test_pool_map_list_order;
      case "pool: map_reduce in order" test_pool_map_reduce_in_order;
      case "pool: sequential fallbacks" test_pool_sequential_fallbacks;
      case "pool: exceptions propagate" test_pool_exception_propagates;
      test_pool_qcheck_matches_init;
      case "cache: key stability" test_cache_key_stability;
      case "cache: hit/miss accounting" test_cache_hit_miss_accounting;
      case "cache: disk layer" test_cache_disk_layer;
      case "cache: parallel memoization" test_cache_parallel_memo;
      case "metrics: counters and report" test_metrics_counters_and_report;
      case "metrics: timing and spice capture" test_metrics_time_and_capture;
      case "fingerprint: every config field matters"
        test_config_fingerprint_exhaustive;
      case "fingerprint: pinned default and preset keys"
        test_config_fingerprint_pinned;
      case "engine: presets and of_name" test_engine_presets_and_of_name;
      case "engine: resolve, batch width, submit_batch"
        test_engine_resolve_and_batch;
      case "engine: setters" test_engine_setters;
      case "cli: int_at_least bounds a flag" test_cli_int_at_least;
      slow_case "eval: parallel table identical to sequential"
        test_parallel_run_table_identical;
      slow_case "eval: all-failed row reports zero counts"
        test_all_failed_row_reports_zero;
    ] )
