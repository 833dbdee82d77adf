(* Fault-tolerant solver supervision: failure taxonomy, the
   retry/fallback ladder, waveform validation, fault injection, and
   checkpointed sweeps. *)

open Helpers
open Runtime

(* ------------------------------------------------------------------ *)
(* Small fixtures                                                      *)

let tmp_counter = ref 0

let tmp_dir prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let rc_circuit () =
  (* 1V step into R-C: a few dozen cheap implicit steps. *)
  let open Spice in
  let c = Circuit.create () in
  let top = Circuit.node c "top" and mid = Circuit.node c "mid" in
  Circuit.vsource c top (Source.pwl [ (0.0, 0.0); (1e-12, 1.0) ]);
  Circuit.resistor c top mid 1e3;
  Circuit.capacitor c mid (Circuit.gnd c) 1e-14;
  c

let rc_config = { Spice.Transient.default_config with tstop = 50e-12 }

let fast_scenario = { Noise.Scenario.config_i with Noise.Scenario.dt = 4e-12 }

let sgdp_only = [ Eqwave.Sgdp.sgdp ]

(* ------------------------------------------------------------------ *)
(* Failure taxonomy                                                    *)

let all_failures : Failure.t list =
  [
    Non_convergence { at = 1e-9 };
    Step_budget { at = 2e-9; budget = 100 };
    Non_finite { what = "victim far end" };
    Rail_bound { what = "out"; v = 2.0; lo = 0.0; hi = 1.2 };
    Missing_crossing { what = "out"; level = 0.6 };
    Cache_io { path = "/tmp/x"; reason = "truncated" };
    Missing_cell { cell = "NAND9" };
    Unsupported { what = "non-monotone input" };
    Overloaded { queue_depth = 64 };
    Queue_timeout { waited_ms = 120.0; budget_ms = 100.0 };
    Too_many_connections { active = 256; limit = 256 };
  ]

let test_failure_codes () =
  let codes = List.map Failure.code all_failures in
  Alcotest.(check (list string))
    "stable snake_case tags"
    [
      "non_convergence"; "step_budget"; "non_finite"; "rail_bound";
      "missing_crossing"; "cache_io"; "missing_cell"; "unsupported";
      "overloaded"; "queue_timeout"; "too_many_connections";
    ]
    codes;
  (* every to_string is nonempty and mentions the code's domain *)
  List.iter
    (fun f -> check_true "printable" (String.length (Failure.to_string f) > 0))
    all_failures

let test_failure_recoverability () =
  (* Admission-control sheds are recoverable in the client-retry
     sense: the same request succeeds once the daemon's queue has
     drained. *)
  let expect =
    [ true; true; true; true; true; false; false; false; true; true; true ]
  in
  List.iter2
    (fun f e ->
      Alcotest.(check bool) (Failure.code f) e (Failure.is_recoverable f))
    all_failures expect

let test_failure_of_exn () =
  (match Failure.of_exn (Spice.Transient.No_convergence 3e-9) with
  | Some (Failure.Non_convergence { at }) -> approx ~eps:1e-18 "at" 3e-9 at
  | _ -> Alcotest.fail "No_convergence not classified");
  (match
     Failure.of_exn
       (Spice.Transient.Step_budget_exhausted { at = 1e-9; budget = 7 })
   with
  | Some (Failure.Step_budget { budget = 7; _ }) -> ()
  | _ -> Alcotest.fail "Step_budget_exhausted not classified");
  (match Failure.of_exn (Failure.Error (Missing_cell { cell = "X" })) with
  | Some (Failure.Missing_cell { cell = "X" }) -> ()
  | _ -> Alcotest.fail "carrier exception not unwrapped");
  check_true "unrelated exception is a bug, not a failure"
    (Failure.of_exn Not_found = None)

(* ------------------------------------------------------------------ *)
(* Transient-level hooks: step budget and fault injection              *)

let test_step_budget () =
  let ckt = rc_circuit () in
  (* Unbounded by default. *)
  (match Spice.Transient.run ~config:rc_config ckt with
  | (_ : Spice.Transient.result) -> ()
  | exception Spice.Transient.Step_budget_exhausted _ ->
      Alcotest.fail "budget enforced with max_steps = 0");
  let config = { rc_config with Spice.Transient.max_steps = 10 } in
  match Spice.Transient.run ~config ckt with
  | (_ : Spice.Transient.result) -> Alcotest.fail "expected budget exhaustion"
  | exception Spice.Transient.Step_budget_exhausted { budget; _ } ->
      Alcotest.(check int) "reported budget" 10 budget

let test_fault_nth_fires_once () =
  let ckt = rc_circuit () in
  let run () =
    match Spice.Transient.run ~config:rc_config ckt with
    | (_ : Spice.Transient.result) -> false
    | exception Spice.Transient.No_convergence _ -> true
  in
  let injected () = (Spice.Transient.Stats.snapshot ()).injected_faults in
  let before = injected () in
  arm_tran (Faultplan.Nth { n = 1 });
  Fun.protect ~finally:disarm_tran (fun () ->
      let hits = List.init 4 (fun _ -> run ()) in
      Alcotest.(check (list bool))
        "exactly solve #1 diverges"
        [ false; true; false; false ]
        hits;
      Alcotest.(check int) "one injection counted" (before + 1) (injected ());
      Alcotest.(check int) "one injection since arm" 1
        (Faultplan.injected Spice.Transient.Fault.injector))

let test_fault_fraction_reproducible () =
  let ckt = rc_circuit () in
  let run_seq () =
    arm_tran (Faultplan.Fraction { rate = 0.5; seed = 9 });
    List.init 12 (fun _ ->
        match Spice.Transient.run ~config:rc_config ckt with
        | (_ : Spice.Transient.result) -> false
        | exception Spice.Transient.No_convergence _ -> true)
  in
  Fun.protect ~finally:disarm_tran (fun () ->
      let a = run_seq () in
      let b = run_seq () in
      Alcotest.(check (list bool)) "same seed, same faults" a b;
      check_true "some faulted" (List.mem true a);
      check_true "some survived" (List.mem false a))

let test_fault_of_string () =
  Fault_grammar.(check "solver" Spice.Transient.Fault.injector solver)

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)

let test_run_ok_first_attempt () =
  let before = Resilience.Stats.snapshot () in
  let r =
    Resilience.run Resilience.standard ~config:rc_config ~attempt:(fun _ -> 42)
  in
  Alcotest.(check (result int reject)) "ok" (Ok 42)
    (match r with Ok v -> Ok v | Error _ -> Error "failure");
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "one attempt" 1 d.Resilience.Stats.attempts;
  Alcotest.(check int) "no retries" 0 d.Resilience.Stats.retries;
  Alcotest.(check int) "no recoveries" 0 d.Resilience.Stats.recoveries

let test_run_recovers () =
  let before = Resilience.Stats.snapshot () in
  let seen = ref [] in
  let base = { rc_config with Spice.Transient.dt = 2e-12 } in
  let r =
    Resilience.run Resilience.standard ~config:base ~attempt:(fun cfg ->
        seen := !seen @ [ cfg.Spice.Transient.dt ];
        if List.length !seen < 3 then
          raise (Spice.Transient.No_convergence 1e-9)
        else "rescued")
  in
  check_true "ok" (r = Ok "rescued");
  (* Attempt 1 is the base config; the "tighten" rung halves a fixed
     grid's dt relative to the BASE, not the previous rung. *)
  (match !seen with
  | [ d1; d2; _ ] ->
      approx ~eps:1e-18 "base dt first" 2e-12 d1;
      approx ~eps:1e-18 "tighten halves dt" 1e-12 d2
  | _ -> Alcotest.failf "expected 3 attempts, saw %d" (List.length !seen));
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "attempts" 3 d.Resilience.Stats.attempts;
  Alcotest.(check int) "retries" 2 d.Resilience.Stats.retries;
  Alcotest.(check int) "one recovery" 1 d.Resilience.Stats.recoveries;
  Alcotest.(check int) "no exhaustion" 0 d.Resilience.Stats.failures

let test_run_unrecoverable_aborts () =
  let attempts = ref 0 in
  let r =
    Resilience.run Resilience.standard ~config:rc_config ~attempt:(fun _ ->
        incr attempts;
        Failure.fail (Missing_cell { cell = "NAND9" }))
  in
  (match r with
  | Error (Failure.Missing_cell { cell = "NAND9" }) -> ()
  | _ -> Alcotest.fail "expected the typed unrecoverable failure");
  Alcotest.(check int) "no retry on unrecoverable input" 1 !attempts

let test_run_exhausts_ladder () =
  let before = Resilience.Stats.snapshot () in
  let attempts = ref 0 in
  let r =
    Resilience.run Resilience.standard ~config:rc_config ~attempt:(fun _ ->
        incr attempts;
        raise (Spice.Transient.No_convergence 2e-9))
  in
  (match r with
  | Error (Failure.Non_convergence { at }) -> approx ~eps:1e-18 "at" 2e-9 at
  | _ -> Alcotest.fail "expected the last typed failure");
  Alcotest.(check int) "full budget spent"
    Resilience.standard.Resilience.max_attempts !attempts;
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "one exhaustion" 1 d.Resilience.Stats.failures;
  Alcotest.(check int) "no recovery" 0 d.Resilience.Stats.recoveries

let test_run_propagates_bugs () =
  match
    Resilience.run Resilience.standard ~config:rc_config ~attempt:(fun _ ->
        raise Not_found)
  with
  | (_ : (unit, Failure.t) result) ->
      Alcotest.fail "a non-failure exception must not be supervised"
  | exception Not_found -> ()

let test_run_validation_rejects () =
  let before = Resilience.Stats.snapshot () in
  let rejected = ref [] in
  let attempts = ref 0 in
  let r =
    Resilience.run Resilience.standard ~config:rc_config
      ~validate:(fun v ->
        if v = 1 then Some (Failure.Non_finite { what = "first result" })
        else None)
      ~on_reject:(fun cfg -> rejected := !rejected @ [ cfg ])
      ~attempt:(fun _ ->
        incr attempts;
        !attempts)
  in
  check_true "second attempt accepted" (r = Ok 2);
  Alcotest.(check int) "on_reject once" 1 (List.length !rejected);
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "rejection counted" 1
    d.Resilience.Stats.rejected_waveforms;
  Alcotest.(check int) "counted as recovery" 1 d.Resilience.Stats.recoveries

let test_policy_helpers () =
  let disabled = Resilience.of_name "none" in
  Alcotest.(check string) "of_name" "standard"
    (Resilience.of_name "standard").Resilience.name;
  Alcotest.(check string) "of_name none" "none" disabled.Resilience.name;
  (match Resilience.of_name "bogus" with
  | (_ : Resilience.policy) -> Alcotest.fail "bogus policy accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "with_max_attempts clamps to 1" 1
    (Resilience.with_max_attempts Resilience.standard (-3))
      .Resilience.max_attempts;
  Alcotest.(check int) "disabled is a single attempt" 1
    disabled.Resilience.max_attempts;
  check_true "fingerprints distinguish policies"
    (Resilience.fingerprint Resilience.standard
    <> Resilience.fingerprint disabled)

let test_validate_waves () =
  let wave vals =
    let n = Array.length vals in
    Waveform.Wave.create
      (Array.init n (fun i -> float_of_int i *. 1e-12))
      vals
  in
  let p = Resilience.standard in
  let good = [ ("out", wave [| 0.0; 0.4; 0.9; 1.0 |]) ] in
  check_true "clean ramp passes"
    (Resilience.validate_waves p ~rails:(0.0, 1.0) ~crossing:0.5 good = None);
  (match
     Resilience.validate_waves p ~rails:(0.0, 1.0)
       [ ("out", wave [| 0.0; Float.nan; 1.0 |]) ]
   with
  | Some (Failure.Non_finite { what = "out" }) -> ()
  | _ -> Alcotest.fail "NaN sample not rejected");
  (* rail_tol 0.5 x swing: 1.4 is legitimate overshoot, 2.0 is not. *)
  check_true "overshoot within tolerance passes"
    (Resilience.validate_waves p ~rails:(0.0, 1.0)
       [ ("out", wave [| 0.0; 1.4; 1.0 |]) ]
    = None);
  (match
     Resilience.validate_waves p ~rails:(0.0, 1.0)
       [ ("out", wave [| 0.0; 2.0; 1.0 |]) ]
   with
  | Some (Failure.Rail_bound { v; _ }) -> approx ~eps:1e-9 "value" 2.0 v
  | _ -> Alcotest.fail "rail escape not rejected");
  (match
     Resilience.validate_waves p ~rails:(0.0, 1.0) ~crossing:0.5
       [ ("out", wave [| 0.0; 0.1; 0.2 |]) ]
   with
  | Some (Failure.Missing_crossing { level; _ }) ->
      approx ~eps:1e-9 "level" 0.5 level
  | _ -> Alcotest.fail "missing crossing not rejected")

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)

let test_checkpoint_roundtrip () =
  let dir = tmp_dir "ckpt" in
  let j = Checkpoint.open_ ~dir ~name:"t" ~fingerprint:"fp-a" in
  check_true "empty" ((Checkpoint.find j 0 : int option) = None);
  Checkpoint.record j 0 11;
  Checkpoint.record j 2 13;
  check_true "finds 0" (Checkpoint.find j 0 = Some 11);
  check_true "finds 2" (Checkpoint.find j 2 = Some 13);
  check_true "missing is None" ((Checkpoint.find j 1 : int option) = None);
  (* a fresh handle on the same dir sees the same entries *)
  let j2 = Checkpoint.open_ ~dir ~name:"t" ~fingerprint:"fp-a" in
  check_true "persistent" (Checkpoint.find j2 2 = Some 13)

let test_checkpoint_fingerprint_wipe () =
  let dir = tmp_dir "ckpt" in
  let j = Checkpoint.open_ ~dir ~name:"t" ~fingerprint:"fp-a" in
  Checkpoint.record j 0 11;
  let j2 = Checkpoint.open_ ~dir ~name:"t" ~fingerprint:"fp-b" in
  check_true "stale result not replayed"
    ((Checkpoint.find j2 0 : int option) = None)

let test_checkpoint_torn_entry () =
  let dir = tmp_dir "ckpt" in
  let j = Checkpoint.open_ ~dir ~name:"t" ~fingerprint:"fp-a" in
  Checkpoint.record j 0 11;
  let entry = Filename.concat (Filename.concat dir "t") "case-000000" in
  check_true "entry exists" (Sys.file_exists entry);
  let oc = open_out_bin entry in
  output_string oc "garbage";
  close_out oc;
  check_true "torn entry reads as absent"
    ((Checkpoint.find j 0 : int option) = None);
  check_true "torn entry unlinked" (not (Sys.file_exists entry))

(* ------------------------------------------------------------------ *)
(* Pool and cache satellites                                           *)

let test_pool_failure_reraises_and_serves () =
  (* [map] chunks trap their own exceptions and re-raise one in the
     caller, so a failing sweep leaves every worker alive: the same
     pool then serves the next sweep, inline (jobs = 1) or on a real
     worker domain (jobs = 2). *)
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          Alcotest.check_raises "sweep failure resurfaces" (Failure "sweep")
            (fun () ->
              ignore
                (Pool.map ~chunk:1 p 8 (fun i ->
                     if i mod 3 = 1 then failwith "sweep" else i)));
          Alcotest.(check (array int))
            "next sweep served" (Array.init 8 (fun i -> i * i))
            (Pool.map ~chunk:1 p 8 (fun i -> i * i))))
    [ 1; 2 ]

let disk_entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))

let test_cache_corrupt_entry () =
  let dir = tmp_dir "cache" in
  let wave = Waveform.Wave.create [| 0.0; 1e-12 |] [| 0.0; 1.0 |] in
  let key = Cache.Key.make "test" [ Cache.Key.str "1" ] in
  let a = Cache.create ~disk_dir:dir () in
  Cache.store a key [ wave ];
  (match disk_entries dir with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected 1 disk entry, found %d" (List.length l));
  (* Corrupt the entry on disk; a fresh cache must classify the error,
     count it, and unlink the file rather than crash or return junk. *)
  let path = Filename.concat dir key in
  let oc = open_out_bin path in
  output_string oc "not a cache entry";
  close_out oc;
  let b = Cache.create ~disk_dir:dir () in
  check_true "corrupt entry is a miss" (Cache.find b key = None);
  Alcotest.(check int) "read error counted" 1 (Cache.read_errors b);
  check_true "corrupt entry unlinked" (not (Sys.file_exists path))

let test_cache_remove () =
  let dir = tmp_dir "cache" in
  let wave = Waveform.Wave.create [| 0.0; 1e-12 |] [| 0.0; 1.0 |] in
  let key = Cache.Key.make "test" [ Cache.Key.str "2" ] in
  let c = Cache.create ~disk_dir:dir () in
  Cache.store c key [ wave ];
  check_true "stored" (Cache.find c key <> None);
  Cache.remove c key;
  check_true "memory entry gone" (Cache.find c key = None);
  check_true "disk entry gone"
    (not (Sys.file_exists (Filename.concat dir key)))

(* ------------------------------------------------------------------ *)
(* End-to-end: sweeps under injected faults and checkpoints            *)

let test_sweep_recovers_injected_divergence () =
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let before = Resilience.Stats.snapshot () in
  arm_tran (Faultplan.Fraction { rate = 0.2; seed = 2 });
  let table =
    Fun.protect ~finally:disarm_tran (fun () ->
        Noise.Eval.run_table ~techniques:sgdp_only scen)
  in
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  check_true "faults were injected"
    (d.Resilience.Stats.retries > 0);
  check_true "ladder recovered them"
    (d.Resilience.Stats.recoveries > 0);
  List.iter
    (fun r -> Alcotest.(check int) "no failed rows" 0 r.Noise.Eval.n_failed)
    table.Noise.Eval.rows

let test_sweep_rejects_corrupt_waveform () =
  let before = Resilience.Stats.snapshot () in
  arm_tran ~kind:Spice.Transient.Fault.Corrupt (Faultplan.Nth { n = 0 });
  let r =
    Fun.protect ~finally:disarm_tran (fun () ->
        Noise.Injection.noiseless fast_scenario)
  in
  let d = Resilience.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "validation caught the NaN waveform" 1
    d.Resilience.Stats.rejected_waveforms;
  check_true "recovered on retry" (d.Resilience.Stats.recoveries >= 1);
  Array.iter
    (fun v -> check_true "delivered waveform is finite" (Float.is_finite v))
    (Waveform.Wave.values r.Noise.Injection.far)

let test_exhausted_ladder_is_typed () =
  let scen = Noise.Scenario.with_cases fast_scenario 1 in
  let broken =
    Engine.map_solver Engine.reference (fun c ->
        { c with Spice.Transient.max_newton = 0 })
  in
  let table = Noise.Eval.run_table ~techniques:sgdp_only ~engine:broken scen in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          match m.Noise.Eval.failure with
          | Some (Failure.Non_convergence _) -> ()
          | Some f ->
              Alcotest.failf "wrong failure type: %s" (Failure.to_string f)
          | None -> Alcotest.fail "missing typed failure")
        c.Noise.Eval.metrics)
    table.Noise.Eval.cases

let sims () = (Spice.Transient.Stats.snapshot ()).Spice.Transient.Stats.sims

let test_checkpointed_table_resumes () =
  let dir = tmp_dir "ckpt-sweep" in
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let run () =
    Noise.Eval.run_table ~techniques:sgdp_only ~checkpoint_dir:dir scen
  in
  let t1 = run () in
  (* Simulate an interruption: drop one journaled case, keep the rest.
     The re-run must replay the survivors, recompute only the victim,
     and produce a byte-identical table. *)
  let sub =
    Filename.concat dir (Sys.readdir dir |> Array.to_list |> List.hd)
  in
  let entries =
    Sys.readdir sub |> Array.to_list
    |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "case-")
    |> List.sort compare
  in
  Alcotest.(check int) "both cases journaled" 2 (List.length entries);
  Sys.remove (Filename.concat sub (List.hd entries));
  let s0 = sims () in
  let t2 = run () in
  let resumed_sims = sims () - s0 in
  check_true "byte-identical resume" (compare t1 t2 = 0);
  (* 1 noisy chain sim + 1 supervised receiver sim for the recomputed
     case, plus the (uncached) noiseless run: far fewer than a full
     2-case sweep, and definitely not zero. *)
  check_true "only the missing case was recomputed"
    (resumed_sims > 0 && resumed_sims <= 4);
  (* A third run replays everything: no case work at all beyond the
     shared noiseless simulation. *)
  let s1 = sims () in
  let t3 = run () in
  check_true "full replay identical" (compare t1 t3 = 0);
  check_true "full replay does only the noiseless sim" (sims () - s1 <= 1)

let test_checkpointed_montecarlo_resumes () =
  let dir = tmp_dir "ckpt-mc" in
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let run () =
    Noise.Montecarlo.run ~seed:5 ~samples:2 ~techniques:sgdp_only
      ~checkpoint_dir:dir scen
  in
  let s1, sum1 = run () in
  let s0 = sims () in
  let s2, sum2 = run () in
  check_true "samples identical" (compare s1 s2 = 0);
  check_true "summaries identical" (compare sum1 sum2 = 0);
  (* Replay needs at most the noiseless references (one per polarity). *)
  check_true "replay skips the per-sample simulations" (sims () - s0 <= 2)

let suite =
  ( "resilience",
    [
      case "failure: stable codes" test_failure_codes;
      case "failure: recoverability split" test_failure_recoverability;
      case "failure: exception classification" test_failure_of_exn;
      case "transient: step budget enforced" test_step_budget;
      case "fault: nth fires exactly once" test_fault_nth_fires_once;
      case "fault: seeded fraction reproducible" test_fault_fraction_reproducible;
      case "fault: spec parsing" test_fault_of_string;
      case "ladder: ok on first attempt" test_run_ok_first_attempt;
      case "ladder: recovers recoverable failures" test_run_recovers;
      case "ladder: unrecoverable aborts" test_run_unrecoverable_aborts;
      case "ladder: exhaustion is typed" test_run_exhausts_ladder;
      case "ladder: bugs propagate" test_run_propagates_bugs;
      case "ladder: validation rejection retries" test_run_validation_rejects;
      case "ladder: policy helpers" test_policy_helpers;
      case "ladder: waveform validation" test_validate_waves;
      case "checkpoint: roundtrip" test_checkpoint_roundtrip;
      case "checkpoint: fingerprint wipe" test_checkpoint_fingerprint_wipe;
      case "checkpoint: torn entry" test_checkpoint_torn_entry;
      case "pool: reusable after a failed map"
        test_pool_failure_reraises_and_serves;
      case "cache: corrupt entry classified" test_cache_corrupt_entry;
      case "cache: remove" test_cache_remove;
      slow_case "sweep: recovers injected divergence"
        test_sweep_recovers_injected_divergence;
      slow_case "sweep: corrupt waveform rejected then recovered"
        test_sweep_rejects_corrupt_waveform;
      case "sweep: exhausted ladder yields typed rows"
        test_exhausted_ladder_is_typed;
      slow_case "sweep: checkpointed table resumes byte-identical"
        test_checkpointed_table_resumes;
      slow_case "sweep: checkpointed montecarlo resumes byte-identical"
        test_checkpointed_montecarlo_resumes;
    ] )
