(* Graceful degradation for the Gamma_eff mapping: the technique
   fallback ladder, per-solve wall-clock deadlines, and the
   differential accuracy guard. *)

open Helpers

let proc = Device.Process.c13
let th = Device.Process.thresholds proc
let vdd = proc.Device.Process.vdd
let fast_scenario = { Noise.Scenario.config_i with Noise.Scenario.dt = 4e-12 }
let sgdp_only = [ Eqwave.Sgdp.sgdp ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Context fixtures                                                    *)

(* A clean synthetic transition every technique should handle: rising
   ramp input (the "noisy" waveform is the exact noiseless ramp),
   falling gate output. *)
let clean_ctx ?samples () =
  let open Waveform in
  let arrival = 1e-9 in
  let input =
    Ramp.to_waveform ~n:1001 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival ~slew:120e-12 ~dir:Wave.Rising th)
  in
  let output =
    Ramp.to_waveform ~n:1001 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival:(arrival +. 40e-12) ~slew:90e-12
         ~dir:Wave.Falling th)
  in
  Eqwave.Technique.make_ctx ?samples ~th ~noisy_in:input ~noiseless_in:input
    ~noiseless_out:output ()

(* The same sane noiseless transition pair with an arbitrary noisy
   input — the shape the pathological-waveform tests poke at. *)
let ctx_with_noisy noisy_in =
  let open Waveform in
  let arrival = 1e-9 in
  let noiseless_in =
    Ramp.to_waveform ~n:801 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival ~slew:120e-12 ~dir:Wave.Rising th)
  in
  let noiseless_out =
    Ramp.to_waveform ~n:801 ~pad:400e-12
      (Ramp.of_arrival_slew ~arrival:(arrival +. 40e-12) ~slew:90e-12
         ~dir:Wave.Falling th)
  in
  Eqwave.Technique.make_ctx ~th ~noisy_in ~noiseless_in ~noiseless_out ()

let tech ?(applicable = fun _ -> Ok ()) ?run name =
  let run =
    match run with
    | Some r -> r
    | None ->
        fun _ ->
          Waveform.Ramp.of_arrival_slew ~arrival:1e-9 ~slew:120e-12
            ~dir:Waveform.Wave.Rising th
  in
  { Eqwave.Technique.name; describe = name ^ " (test)"; applicable; run }

(* ------------------------------------------------------------------ *)
(* Ladder construction                                                 *)

let test_default_order () =
  Alcotest.(check (list string))
    "paper accuracy ordering"
    [ "SGDP"; "WLS5"; "LSF3"; "E4"; "P1" ]
    (Eqwave.Ladder.names Eqwave.Ladder.default);
  Alcotest.(check int) "length" 5 (Eqwave.Ladder.length Eqwave.Ladder.default)

let test_make_validation () =
  (match Eqwave.Ladder.make [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ladder accepted");
  match Eqwave.Ladder.make [ tech "A"; tech "A" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names accepted"

let test_of_names () =
  let l = Eqwave.Ladder.of_names [ "P1"; "SGDP" ] in
  Alcotest.(check (list string))
    "order kept" [ "P1"; "SGDP" ]
    (Eqwave.Ladder.names l);
  match Eqwave.Ladder.of_names [ "NOPE" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown name accepted"

let test_prepend_dedups () =
  let l = Eqwave.Ladder.prepend Eqwave.Point_based.p1 Eqwave.Ladder.default in
  Alcotest.(check (list string))
    "P1 moves to rung 0, later copy dropped"
    [ "P1"; "SGDP"; "WLS5"; "LSF3"; "E4" ]
    (Eqwave.Ladder.names l)

let test_fingerprint_tracks_order () =
  let a = Eqwave.Ladder.fingerprint Eqwave.Ladder.default in
  let b =
    Eqwave.Ladder.fingerprint (Eqwave.Ladder.of_names [ "P1"; "SGDP" ])
  in
  check_true "distinct orders, distinct fingerprints" (a <> b);
  Alcotest.(check string)
    "deterministic" a
    (Eqwave.Ladder.fingerprint Eqwave.Ladder.default)

(* ------------------------------------------------------------------ *)
(* Ladder semantics                                                    *)

let test_clean_ctx_resolves_at_rung0 () =
  match Eqwave.Ladder.run Eqwave.Ladder.default (clean_ctx ()) with
  | Error _ -> Alcotest.fail "clean context exhausted the ladder"
  | Ok o ->
      Alcotest.(check string)
        "preferred technique" "SGDP" o.Eqwave.Ladder.technique;
      Alcotest.(check int) "rung 0" 0 o.Eqwave.Ladder.rung;
      check_true "no skips" (o.Eqwave.Ladder.skipped = []);
      check_true "finite non-negative score"
        (Float.is_finite o.Eqwave.Ladder.score_v
        && o.Eqwave.Ladder.score_v >= 0.0)

let test_skips_recorded_in_order () =
  let l =
    Eqwave.Ladder.make
      [
        tech "A" ~applicable:(fun _ -> Error "A says no");
        tech "B" ~run:(fun _ ->
            raise (Eqwave.Technique.Unsupported "B bailed"));
        tech "C";
      ]
  in
  match Eqwave.Ladder.run l (clean_ctx ()) with
  | Error _ -> Alcotest.fail "C should have accepted"
  | Ok o ->
      Alcotest.(check string) "winner" "C" o.Eqwave.Ladder.technique;
      Alcotest.(check int) "rung" 2 o.Eqwave.Ladder.rung;
      Alcotest.(check (list (pair string string)))
        "skip log"
        [ ("A", "A says no"); ("B", "B bailed") ]
        (List.map
           (fun (s : Eqwave.Ladder.skip) ->
             (s.Eqwave.Ladder.technique, s.Eqwave.Ladder.reason))
           o.Eqwave.Ladder.skipped)

let test_exhausted_reports_every_skip () =
  let l =
    Eqwave.Ladder.make
      [
        tech "A" ~applicable:(fun _ -> Error "no A");
        tech "B" ~run:(fun _ -> failwith "numeric blowup");
        tech "C" ~run:(fun _ ->
            Waveform.Ramp.make ~slope:Float.nan ~intercept:0.0 ~vdd);
      ]
  in
  match Eqwave.Ladder.run l (clean_ctx ()) with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error skips ->
      Alcotest.(check (list (pair string string)))
        "every rung accounted, with reasons"
        [
          ("A", "no A");
          ("B", "B: numeric blowup");
          ("C", "C: non-finite fit");
        ]
        (List.map
           (fun (s : Eqwave.Ladder.skip) ->
             (s.Eqwave.Ladder.technique, s.Eqwave.Ladder.reason))
           skips)

let test_score_zero_for_exact_ramp () =
  (* The noisy input IS a saturated ramp, so the accepted rung's score
     against it should be tiny. *)
  match Eqwave.Ladder.run Eqwave.Ladder.default (clean_ctx ()) with
  | Ok o -> check_true "near-zero deviation" (o.Eqwave.Ladder.score_v < 0.02)
  | Error _ -> Alcotest.fail "clean context exhausted the ladder"

(* ------------------------------------------------------------------ *)
(* Applicability predicates                                            *)

let test_polarity_contradiction_pre_fit () =
  (* A noisy waveform whose fit region is valid for the rising
     transition (first low crossing well before the last high crossing)
     but whose trend over that region falls — high early, low late,
     with a late glitch extending the region. LSF3's predicate must
     reject it before fitting, with a polarity reason. *)
  let pulse =
    Edges.(
      sample ~t0:0.0 ~t1:2.5e-9
        (clamp ~vdd
           (superpose
              [
                linear_edge ~t0:0.3e-9 ~trans:50e-12 ~v0:0.0 ~v1:vdd;
                linear_edge ~t0:0.9e-9 ~trans:50e-12 ~v0:0.0 ~v1:(-.vdd);
                triangular_glitch ~t0:1.95e-9 ~rise:30e-12 ~fall:30e-12
                  ~peak:vdd;
              ])))
  in
  let ctx = ctx_with_noisy pulse in
  (match Eqwave.Least_squares.lsf3.Eqwave.Technique.applicable ctx with
  | Error reason ->
      check_true "reason mentions polarity"
        (contains ~needle:"polarity" (String.lowercase_ascii reason))
  | Ok () -> Alcotest.fail "contradictory polarity deemed applicable");
  (* And the ladder converts it into a skip or a downgrade, never an
     escaped exception. *)
  match Eqwave.Ladder.run Eqwave.Ladder.default ctx with
  | Ok _ | Error _ -> ()

let test_predicates_accept_clean_ctx () =
  let ctx = clean_ctx () in
  List.iter
    (fun (t : Eqwave.Technique.t) ->
      match t.Eqwave.Technique.applicable ctx with
      | Ok () -> ()
      | Error r ->
          Alcotest.failf "%s rejected a clean context: %s"
            t.Eqwave.Technique.name r)
    Eqwave.Registry.all

(* ------------------------------------------------------------------ *)
(* Pathological waveforms: the ladder always terminates cleanly        *)

let ladder_survives name ctx =
  match Eqwave.Ladder.run Eqwave.Ladder.default ctx with
  | Ok o ->
      check_true
        (name ^ ": finite score")
        (Float.is_finite o.Eqwave.Ladder.score_v);
      let r = o.Eqwave.Ladder.ramp in
      check_true
        (name ^ ": finite ramp")
        (Float.is_finite r.Waveform.Ramp.slope
        && Float.is_finite r.Waveform.Ramp.intercept)
  | Error skips ->
      check_true
        (name ^ ": exhaustion carries reasons")
        (skips <> []
        && List.for_all
             (fun (s : Eqwave.Ladder.skip) ->
               String.length s.Eqwave.Ladder.reason > 0)
             skips)

let test_pathological_shapes () =
  let glitchy ~peak ~t0 =
    Edges.noisy_edge ~th ~arrival:1e-9 ~slew:120e-12
      ~dir:Waveform.Wave.Rising
      ~glitches:
        [ Edges.triangular_glitch ~t0 ~rise:30e-12 ~fall:60e-12 ~peak ]
      ()
  in
  (* Pure glitch, no transition underneath. *)
  ladder_survives "pure glitch"
    (ctx_with_noisy
       (Edges.sample ~t0:0.0 ~t1:2.5e-9
          (Edges.triangular_glitch ~t0:1e-9 ~rise:40e-12 ~fall:80e-12
             ~peak:(0.45 *. vdd))));
  (* Non-monotone edge: a deep dip after the crossing. *)
  ladder_survives "non-monotone"
    (ctx_with_noisy (glitchy ~peak:(-0.6 *. vdd) ~t0:1.03e-9));
  (* Rail-clipped overshoot. *)
  ladder_survives "rail-clipped"
    (ctx_with_noisy (glitchy ~peak:(1.8 *. vdd) ~t0:1.0e-9));
  (* Never crosses the low threshold at all. *)
  ladder_survives "never-crossing"
    (ctx_with_noisy
       (Edges.sample ~t0:0.0 ~t1:2.5e-9 (fun _ -> 0.2 *. vdd)));
  (* A flat noiseless input or output: the arc has no transition, and
     SGDP's skip says which wave is flat. *)
  let ramp = (ctx_with_noisy (glitchy ~peak:0.0 ~t0:1e-9)).noisy_in in
  let flat = Waveform.Wave.create [| 0.0; 2.5e-9 |] [| 0.0; 0.0 |] in
  List.iter
    (fun (name, noiseless_in, noiseless_out, needle) ->
      let ctx =
        Eqwave.Technique.make_ctx ~th ~noisy_in:ramp ~noiseless_in ~noiseless_out ()
      in
      ladder_survives name ctx;
      match Eqwave.Ladder.run Eqwave.Ladder.default ctx with
      | Ok { skipped = s :: _; _ } | Error (s :: _) ->
          check_true (name ^ ": SGDP's reason") (contains ~needle s.reason)
      | _ -> Alcotest.failf "%s: SGDP was not skipped" name)
    [
      ("flat noiseless input", flat, ramp, "noiseless input is flat");
      ("flat noiseless output", ramp, flat, "noiseless output is flat");
    ]

let qcheck_pathological =
  qcase ~count:60 "ladder: never raises on random glitched edges"
    QCheck2.Gen.(
      triple
        (float_range (-2.0) 2.0) (* glitch peak, x vdd *)
        (float_range 0.7 1.4) (* glitch start, ns *)
        (float_range 0.2 2.0) (* glitch width scale *))
    (fun (peak_frac, t0_ns, width) ->
      let w =
        Edges.noisy_edge ~th ~arrival:1e-9 ~slew:120e-12
          ~dir:Waveform.Wave.Rising
          ~glitches:
            [
              Edges.triangular_glitch ~t0:(t0_ns *. 1e-9)
                ~rise:(width *. 40e-12) ~fall:(width *. 70e-12)
                ~peak:(peak_frac *. vdd);
            ]
          ()
      in
      match Eqwave.Ladder.run Eqwave.Ladder.default (ctx_with_noisy w) with
      | Ok o ->
          Float.is_finite o.Eqwave.Ladder.score_v
          && Float.is_finite o.Eqwave.Ladder.ramp.Waveform.Ramp.slope
      | Error skips -> skips <> [])

(* ------------------------------------------------------------------ *)
(* Failure taxonomy additions                                          *)

let degradation_failures : Runtime.Failure.t list =
  [
    Mapping_degraded { technique = "WLS5"; rung = 1; score_v = 0.01 };
    Mapping_exhausted { tried = 5; last = "P1: no mid crossing" };
    Deadline_exceeded { at = 1e-9; budget_ms = 50.0 };
  ]

let test_new_failure_codes () =
  Alcotest.(check (list string))
    "stable codes"
    [ "mapping_degraded"; "mapping_exhausted"; "deadline_exceeded" ]
    (List.map Runtime.Failure.code degradation_failures);
  List.iter
    (fun f ->
      check_true "printable" (String.length (Runtime.Failure.to_string f) > 0))
    degradation_failures

let test_new_failures_unrecoverable () =
  (* Re-solving cannot beat an expired budget or an exhausted ladder:
     all three short-circuit the resilience retry ladder. *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Runtime.Failure.code f) false
        (Runtime.Failure.is_recoverable f))
    degradation_failures

let test_deadline_of_exn () =
  match
    Runtime.Failure.of_exn
      (Spice.Transient.Deadline_exceeded { at = 2e-9; budget_ms = 10.0 })
  with
  | Some (Runtime.Failure.Deadline_exceeded { budget_ms; at }) ->
      approx ~eps:1e-18 "at" 2e-9 at;
      approx "budget" 10.0 budget_ms
  | _ -> Alcotest.fail "Deadline_exceeded not classified"

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let rc_circuit () =
  let open Spice in
  let c = Circuit.create () in
  let top = Circuit.node c "top" and mid = Circuit.node c "mid" in
  Circuit.vsource c top (Source.pwl [ (0.0, 0.0); (1e-12, 1.0) ]);
  Circuit.resistor c top mid 1e3;
  Circuit.capacitor c mid (Circuit.gnd c) 1e-14;
  c

let rc_config = { Spice.Transient.default_config with tstop = 50e-12 }

let deadline_hits () =
  (Spice.Transient.Stats.snapshot ()).Spice.Transient.Stats.deadline_hits

let test_with_budget_validation () =
  List.iter
    (fun ms ->
      match Spice.Transient.Deadline.with_budget ~ms (fun () -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "budget %f accepted" ms)
    [ 0.0; -5.0; Float.nan; Float.infinity ]

let test_budget_restored_on_exit () =
  let ckt = rc_circuit () in
  let run () = ignore (Spice.Transient.run ~config:rc_config ckt) in
  run ();
  (match
     Spice.Transient.Deadline.with_budget ~ms:1e-3 (fun () ->
         Unix.sleepf 0.002;
         run ())
   with
  | exception Spice.Transient.Deadline_exceeded _ -> ()
  | () -> Alcotest.fail "an expired budget let the solve run");
  (* Outside the budget the same solve runs unbounded again. *)
  run ()

let test_generous_budget_is_transparent () =
  let ckt = rc_circuit () in
  let plain = Spice.Transient.run ~config:rc_config ckt in
  let budgeted =
    Spice.Transient.Deadline.with_budget ~ms:60_000.0 (fun () ->
        Spice.Transient.run ~config:rc_config ckt)
  in
  check_true "identical waveform"
    (compare
       (Waveform.Wave.values (Spice.Transient.probe plain "mid"))
       (Waveform.Wave.values (Spice.Transient.probe budgeted "mid"))
    = 0)

let test_slow_fault_trips_deadline () =
  let ckt = rc_circuit () in
  let before = deadline_hits () in
  arm_tran ~kind:Spice.Transient.Fault.Slow (Faultplan.Nth { n = 0 });
  Fun.protect ~finally:disarm_tran (fun () ->
      match
        Spice.Transient.Deadline.with_budget ~ms:2.0 (fun () ->
            Spice.Transient.run ~config:rc_config ckt)
      with
      | (_ : Spice.Transient.result) ->
          Alcotest.fail "stalled solve completed under a 2 ms budget"
      | exception Spice.Transient.Deadline_exceeded { budget_ms; _ } ->
          approx "reported budget" 2.0 budget_ms;
          Alcotest.(check int) "deadline hit counted" (before + 1)
            (deadline_hits ()))

let test_slow_fault_without_deadline_completes () =
  (* Slow only stalls; with no budget installed the solve finishes and
     the result is identical to a clean run. *)
  let ckt = rc_circuit () in
  let config = { rc_config with Spice.Transient.tstop = 4e-12 } in
  let clean = Spice.Transient.run ~config ckt in
  arm_tran ~kind:Spice.Transient.Fault.Slow (Faultplan.Nth { n = 0 });
  let stalled =
    Fun.protect ~finally:disarm_tran (fun () ->
        Spice.Transient.run ~config ckt)
  in
  check_true "same waveform"
    (compare
       (Waveform.Wave.values (Spice.Transient.probe clean "mid"))
       (Waveform.Wave.values (Spice.Transient.probe stalled "mid"))
    = 0)

(* The sweep-level contract: one stalled solve under a deadline costs
   exactly that case (typed), and every other case is identical to the
   clean run. *)
let test_sweep_deadline_cancellation () =
  let scen = Noise.Scenario.with_cases fast_scenario 3 in
  let clean =
    Noise.Eval.run_table ~techniques:sgdp_only ~engine:Runtime.Engine.reference
      scen
  in
  (* Solve order without a cache: noiseless (#0), then per case noisy
     chain, receiver replay, one technique receiver — solve #4 is
     case 1's noisy chain run. *)
  arm_tran ~kind:Spice.Transient.Fault.Slow (Faultplan.Nth { n = 4 });
  let faulted =
    Fun.protect ~finally:disarm_tran (fun () ->
        Noise.Eval.run_table ~techniques:sgdp_only
          ~engine:(Runtime.Engine.with_deadline Runtime.Engine.reference 100.0)
          scen)
  in
  let case i t = List.nth t.Noise.Eval.cases i in
  (match (case 1 faulted).Noise.Eval.mapping with
  | Error (Runtime.Failure.Deadline_exceeded _) -> ()
  | Error f ->
      Alcotest.failf "expected deadline_exceeded, got %s"
        (Runtime.Failure.code f)
  | Ok _ -> Alcotest.fail "stalled case reported a mapping");
  check_true "case 0 identical to clean run"
    (compare (case 0 clean) (case 0 faulted) = 0);
  check_true "case 2 identical to clean run"
    (compare (case 2 clean) (case 2 faulted) = 0);
  match (case 1 faulted).Noise.Eval.metrics with
  | [ m ] -> (
      match m.Noise.Eval.failure with
      | Some (Runtime.Failure.Deadline_exceeded _) -> ()
      | _ -> Alcotest.fail "metric does not carry the deadline failure")
  | _ -> Alcotest.fail "expected a single technique metric"

(* Many concurrent deadlined tasks on one pool: the budget token is
   domain-local, so every worker carries exactly the deadline of its
   own task — each cancels cleanly with its own budget in the payload,
   nothing leaks to the caller, and the pool survives. *)
let test_pool_deadline_concurrent_cancellation () =
  arm_tran ~kind:Spice.Transient.Fault.Slow
    (Faultplan.Fraction { rate = 1.0; seed = 11 });
  Fun.protect ~finally:disarm_tran (fun () ->
      with_pool ~jobs:4 (fun pool ->
          let n = 12 in
          let outcomes =
            Runtime.Pool.map ~chunk:1 pool n (fun i ->
                (* Distinct budgets per task prove the worker reads its
                   own token, not a neighbour's. *)
                let ms = 2.0 +. (0.5 *. float_of_int (i mod 3)) in
                match
                  Runtime.Pool.with_deadline ~ms (fun () ->
                      Spice.Transient.run ~config:rc_config (rc_circuit ()))
                with
                | (_ : Spice.Transient.result) -> `Completed
                | exception Spice.Transient.Deadline_exceeded { budget_ms; _ }
                  ->
                    if budget_ms = ms then `Cancelled else `Wrong_budget)
          in
          Array.iteri
            (fun i o ->
              check_true
                (Printf.sprintf "task %d cancelled under its own budget" i)
                (o = `Cancelled))
            outcomes;
          (* Every task's budget has expired; a solve in the caller
             still completes, so none of them leaked into it. *)
          ignore (Spice.Transient.run ~config:rc_config (rc_circuit ()));
          let after = Runtime.Pool.map pool 8 (fun i -> i * i) in
          Alcotest.(check (array int))
            "pool still serves work"
            (Array.init 8 (fun i -> i * i))
            after))

(* ------------------------------------------------------------------ *)
(* Differential guard                                                  *)

let test_guard_validation () =
  (match Runtime.Guard.make ~every:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "every=0 accepted");
  match Runtime.Guard.make ~tol_s:Float.nan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan tolerance accepted"

let test_guard_selection_deterministic () =
  let g = Runtime.Guard.make ~every:8 ~seed:3 () in
  let picks = List.init 200 (Runtime.Guard.selects g) in
  Alcotest.(check (list bool))
    "stable across calls" picks
    (List.init 200 (Runtime.Guard.selects g));
  let n = List.length (List.filter Fun.id picks) in
  check_true "roughly 1-in-8 sampled" (n >= 10 && n <= 45);
  let all = Runtime.Guard.make ~every:1 () in
  check_true "every=1 selects everything"
    (List.for_all Fun.id (List.init 50 (Runtime.Guard.selects all)))

let test_guard_record_and_stats () =
  let before = Runtime.Guard.Stats.snapshot () in
  let g = Runtime.Guard.make ~tol_s:1e-12 () in
  check_true "within tolerance agrees" (Runtime.Guard.record g ~delta_s:5e-13);
  check_true "beyond tolerance disagrees"
    (not (Runtime.Guard.record g ~delta_s:(-3e-12)));
  Runtime.Guard.record_error ();
  let d = Runtime.Guard.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "checked" 2 d.Runtime.Guard.Stats.checked;
  Alcotest.(check int) "agreements" 1 d.Runtime.Guard.Stats.agreements;
  Alcotest.(check int) "disagreements" 1 d.Runtime.Guard.Stats.disagreements;
  Alcotest.(check int) "errors" 1 d.Runtime.Guard.Stats.errors;
  check_true "max delta is the high-water mark"
    (d.Runtime.Guard.Stats.max_delta_s >= 3e-12)

let test_guarded_sweep_agrees_with_itself () =
  (* Sweeping on the reference engine with a guard comparing against
     the reference preset: every guarded case must agree exactly. *)
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let before = Runtime.Guard.Stats.snapshot () in
  let engine =
    Runtime.Engine.with_guard Runtime.Engine.reference
      (Runtime.Guard.make ~every:1 ())
  in
  let (_ : Noise.Eval.table) =
    Noise.Eval.run_table ~techniques:sgdp_only ~engine scen
  in
  let d = Runtime.Guard.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "every case checked" 2 d.Runtime.Guard.Stats.checked;
  Alcotest.(check int) "all agree" 2 d.Runtime.Guard.Stats.agreements;
  Alcotest.(check int) "no disagreements" 0 d.Runtime.Guard.Stats.disagreements;
  Alcotest.(check int) "no guard errors" 0 d.Runtime.Guard.Stats.errors

let test_guard_flags_disagreement () =
  (* A negative tolerance makes every exact agreement a disagreement —
     a cheap way to prove the counting path without a wrong solver. *)
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let before = Runtime.Guard.Stats.snapshot () in
  let engine =
    Runtime.Engine.with_guard Runtime.Engine.reference
      (Runtime.Guard.make ~every:1 ~tol_s:(-1.0) ())
  in
  let (_ : Noise.Eval.table) =
    Noise.Eval.run_table ~techniques:sgdp_only ~engine scen
  in
  let d = Runtime.Guard.Stats.(diff (snapshot ()) before) in
  Alcotest.(check int) "all disagree" 2 d.Runtime.Guard.Stats.disagreements

(* ------------------------------------------------------------------ *)
(* Sweep integration: degradation summary and fingerprints             *)

let test_table_degradation_summary () =
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let t =
    Noise.Eval.run_table ~techniques:sgdp_only ~engine:Runtime.Engine.reference
      scen
  in
  let d = t.Noise.Eval.degradation in
  Alcotest.(check (list string))
    "ladder names recorded"
    (Eqwave.Ladder.names Eqwave.Ladder.default)
    d.Noise.Eval.ladder;
  Alcotest.(check int) "every case mapped" 2
    (Array.fold_left ( + ) 0 d.Noise.Eval.rung_counts);
  Alcotest.(check int) "all at rung 0" 2 d.Noise.Eval.rung_counts.(0);
  Alcotest.(check int) "none exhausted" 0 d.Noise.Eval.n_exhausted;
  Alcotest.(check int) "none unmapped" 0 d.Noise.Eval.n_unmapped;
  check_true "finite avg score"
    (Float.is_finite d.Noise.Eval.avg_score_v
    && d.Noise.Eval.avg_score_v >= 0.0);
  let rendered = Format.asprintf "%a" Noise.Eval.pp_table t in
  check_true "pp mentions the ladder" (contains ~needle:"ladder" rendered)

let test_fingerprint_covers_degradation_settings () =
  let fp ?ladder engine =
    Noise.Eval.sweep_fingerprint ~tag:"t" ~schema:"s" ?ladder ~techs:sgdp_only
      ~engine fast_scenario []
  in
  let base = fp Runtime.Engine.reference in
  check_true "ladder order changes it"
    (base
    <> fp ~ladder:(Eqwave.Ladder.of_names [ "P1" ]) Runtime.Engine.reference);
  check_true "deadline changes it"
    (base <> fp (Runtime.Engine.with_deadline Runtime.Engine.reference 50.0));
  check_true "guard changes it"
    (base
    <> fp
         (Runtime.Engine.with_guard Runtime.Engine.reference
            (Runtime.Guard.make ())))

let test_montecarlo_all_failed_is_zero () =
  let failing =
    tech "FAIL" ~run:(fun _ ->
        raise (Eqwave.Technique.Unsupported "always"))
  in
  let scen = Noise.Scenario.with_cases fast_scenario 2 in
  let _, summaries =
    Noise.Montecarlo.run ~samples:2 ~techniques:[ failing ]
      ~engine:Runtime.Engine.reference scen
  in
  match summaries with
  | [ s ] ->
      Alcotest.(check int) "no usable samples" 0 s.Noise.Montecarlo.n;
      Alcotest.(check int) "all failed" 2 s.Noise.Montecarlo.failed;
      check_true "p50 is 0, not nan" (s.Noise.Montecarlo.p50_ps = 0.0);
      check_true "p95 is 0, not nan" (s.Noise.Montecarlo.p95_ps = 0.0);
      check_true "max is 0, not nan" (s.Noise.Montecarlo.max_ps = 0.0)
  | _ -> Alcotest.fail "expected one summary"

(* ------------------------------------------------------------------ *)

let suite =
  ( "degradation",
    [
      case "ladder: default order" test_default_order;
      case "ladder: construction validation" test_make_validation;
      case "ladder: of_names" test_of_names;
      case "ladder: prepend dedups" test_prepend_dedups;
      case "ladder: fingerprint tracks order" test_fingerprint_tracks_order;
      case "ladder: clean ctx at rung 0" test_clean_ctx_resolves_at_rung0;
      case "ladder: skips recorded in order" test_skips_recorded_in_order;
      case "ladder: exhaustion reports skips" test_exhausted_reports_every_skip;
      case "ladder: exact ramp scores ~0" test_score_zero_for_exact_ramp;
      case "predicates: polarity pre-fit" test_polarity_contradiction_pre_fit;
      case "predicates: accept clean ctx" test_predicates_accept_clean_ctx;
      case "pathological: fixed shapes" test_pathological_shapes;
      qcheck_pathological;
      case "failures: new codes" test_new_failure_codes;
      case "failures: unrecoverable" test_new_failures_unrecoverable;
      case "failures: deadline of_exn" test_deadline_of_exn;
      case "deadline: budget validation" test_with_budget_validation;
      case "deadline: restored on exit" test_budget_restored_on_exit;
      case "deadline: generous budget transparent"
        test_generous_budget_is_transparent;
      case "deadline: slow fault trips" test_slow_fault_trips_deadline;
      case "deadline: slow without budget completes"
        test_slow_fault_without_deadline_completes;
      slow_case "deadline: sweep cancellation" test_sweep_deadline_cancellation;
      slow_case "deadline: concurrent pool budgets"
        test_pool_deadline_concurrent_cancellation;
      case "guard: validation" test_guard_validation;
      case "guard: deterministic selection" test_guard_selection_deterministic;
      case "guard: record and stats" test_guard_record_and_stats;
      slow_case "guard: sweep agrees with itself"
        test_guarded_sweep_agrees_with_itself;
      slow_case "guard: flags disagreement" test_guard_flags_disagreement;
      slow_case "sweep: degradation summary" test_table_degradation_summary;
      case "sweep: fingerprint covers settings"
        test_fingerprint_covers_degradation_settings;
      slow_case "montecarlo: all-failed is zero"
        test_montecarlo_all_failed_is_zero;
    ] )
