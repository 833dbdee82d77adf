open Helpers
open Spice

(* Semantics of the batch-first solve API: [Transient.run_batch_outcomes]
   must be observationally identical to the sequential [Transient.run]
   loop — byte-identical traces, the same fault-plan assignment by
   solve index, and per-case deadline cancellation. *)

let stats_of f =
  let before = Transient.Stats.snapshot () in
  let r = f () in
  (r, Transient.Stats.diff (Transient.Stats.snapshot ()) before)

let wave_identical msg a b =
  check_true (msg ^ ": times byte-identical")
    (Waveform.Wave.times a = Waveform.Wave.times b);
  check_true (msg ^ ": values byte-identical")
    (Waveform.Wave.values a = Waveform.Wave.values b)

(* ------------------------------------------------------------------ *)
(* Byte-identity against the scalar loop, over three batch shapes:
   - the paper's Config II alignment sweep with an aggressor-quiet case
     mixed in;
   - mixed structures: a Config I circuit (one aggressor, different
     line) between two Config II ones;
   - adaptive stepping, whose step sequence differs per case. *)

let scenario_config scen =
  { Transient.default_config with dt = scen.Noise.Scenario.dt;
    tstop = scen.Noise.Scenario.tstop }

let config_ii_batch () =
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_ii 3 in
  let cases =
    Array.append
      (Array.map
         (fun tau -> Noise.Scenario.build scen ~aggressor_active:true ~tau)
         (Noise.Scenario.taus scen))
      [| Noise.Scenario.build scen ~aggressor_active:false ~tau:0.0 |]
  in
  ( scenario_config scen,
    cases,
    [ Noise.Scenario.victim_far_node scen; Noise.Scenario.victim_rcv_node scen ]
  )

let mixed_config_batch () =
  let sii = Noise.Scenario.with_cases Noise.Scenario.config_ii 2 in
  let si = Noise.Scenario.with_cases Noise.Scenario.config_i 2 in
  let tii = Noise.Scenario.taus sii and ti = Noise.Scenario.taus si in
  let cases =
    [|
      Noise.Scenario.build sii ~aggressor_active:true ~tau:tii.(0);
      Noise.Scenario.build si ~aggressor_active:true ~tau:ti.(0);
      Noise.Scenario.build sii ~aggressor_active:true ~tau:tii.(1);
    |]
  in
  (scenario_config sii, cases, [ "vic.rcv" ])

let adaptive_batch () =
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_ii 2 in
  let cases =
    Array.map
      (fun tau -> Noise.Scenario.build scen ~aggressor_active:true ~tau)
      (Noise.Scenario.taus scen)
  in
  let config =
    Transient.with_crossing_levels_if_empty
      (Transient.with_adaptive ~lte_tol:2e-3 ~dt_min:1e-15 ~dt_max:50e-12
         (scenario_config scen))
      [ 0.12; 0.6; 1.08 ]
  in
  (config, cases, [ "vic.rcv" ])

let test_batch_matches_scalar_loop () =
  List.iter
    (fun (shape, make) ->
      let config, cases, nodes = make () in
      let scalar =
        Array.map (fun (c, ic) -> Transient.run ~config ~ic c) cases
      in
      let batch, s =
        stats_of (fun () ->
            Transient.run_batch_outcomes ~config ~ics:(Array.map snd cases)
              (Array.map fst cases))
      in
      Alcotest.(check int) (shape ^ ": every case counted as batched")
        (Array.length cases) s.Transient.Stats.batched_solves;
      Array.iteri
        (fun i outcome ->
          let msg = Printf.sprintf "%s case %d" shape i in
          match outcome with
          | Error e ->
              Alcotest.failf "%s: %s" msg (Printexc.to_string e)
          | Ok rb ->
              let rs = scalar.(i) in
              let grid r =
                Waveform.Wave.times (Transient.probe r (List.hd nodes))
              in
              check_true (msg ^ ": same grid") (grid rb = grid rs);
              List.iter
                (fun nd ->
                  wave_identical (msg ^ ": " ^ nd) (Transient.probe rb nd)
                    (Transient.probe rs nd))
                nodes)
        batch)
    [
      ("Config II", config_ii_batch);
      ("mixed Config I/II", mixed_config_batch);
      ("adaptive", adaptive_batch);
    ]

(* ------------------------------------------------------------------ *)
(* Mid-batch failures: a deterministic fault plan assigns failures by
   solve index, so the batch must fail exactly the case the sequential
   loop would — and only that case. *)

let ladder n_nodes =
  let c = Circuit.create () in
  let src = Circuit.node c "src" in
  Circuit.vsource c src
    (Source.ramp ~t0:0.1e-9 ~v0:0.0 ~v1:1.0 ~trans:0.2e-9);
  let prev = ref src in
  for i = 1 to n_nodes do
    let n = Circuit.node c (Printf.sprintf "n%d" i) in
    Circuit.resistor c !prev n 200.0;
    Circuit.capacitor c n (Circuit.gnd c) 20e-15;
    prev := n
  done;
  c

let ladder_config = { Transient.default_config with dt = 1e-12; tstop = 1e-9 }

let test_batch_fault_assignment_matches_loop () =
  let circuits = Array.init 4 (fun _ -> ladder 8) in
  Fun.protect ~finally:disarm_tran (fun () ->
      arm_tran (Faultplan.Nth { n = 1 });
      let batch =
        Transient.run_batch_outcomes ~config:ladder_config circuits
      in
      (* Re-arm to reset the solve index, then replay sequentially. *)
      arm_tran (Faultplan.Nth { n = 1 });
      let scalar =
        Array.map
          (fun c ->
            match Transient.run ~config:ladder_config c with
            | r -> Ok r
            | exception e -> Error e)
          circuits
      in
      Array.iteri
        (fun i ob ->
          match (ob, scalar.(i)) with
          | Ok rb, Ok rs ->
              check_true
                (Printf.sprintf "case %d expected to survive" i)
                (i <> 1);
              wave_identical
                (Printf.sprintf "case %d: last node" i)
                (Transient.probe rb "n8") (Transient.probe rs "n8")
          | Error (Transient.No_convergence _),
            Error (Transient.No_convergence _) ->
              check_true
                (Printf.sprintf "case %d expected to fail" i)
                (i = 1)
          | _ ->
              Alcotest.failf "case %d: batch and loop outcomes disagree" i)
        batch)

(* ------------------------------------------------------------------ *)
(* Per-case deadline slicing: a budget installed around the batch
   cancels only the case that is actually slow; its siblings complete
   and stay byte-identical to an unbudgeted run. *)

let test_batch_deadline_cancels_one_case () =
  let circuits = Array.init 3 (fun _ -> ladder 8) in
  let clean = Array.map (Transient.run ~config:ladder_config) circuits in
  Fun.protect ~finally:disarm_tran (fun () ->
      arm_tran ~kind:Transient.Fault.Slow (Faultplan.Nth { n = 1 });
      let outcomes, s =
        stats_of (fun () ->
            Transient.Deadline.with_budget ~ms:60.0 (fun () ->
                Transient.run_batch_outcomes ~config:ladder_config circuits))
      in
      check_true "deadline hit recorded"
        (s.Transient.Stats.deadline_hits >= 1);
      Array.iteri
        (fun i o ->
          match o with
          | Error (Transient.Deadline_exceeded _) ->
              check_true
                (Printf.sprintf "case %d expected to be cancelled" i)
                (i = 1)
          | Error e ->
              Alcotest.failf "case %d: unexpected failure %s" i
                (Printexc.to_string e)
          | Ok r ->
              check_true
                (Printf.sprintf "case %d expected to complete" i)
                (i <> 1);
              wave_identical
                (Printf.sprintf "case %d: unaffected by sibling cancel" i)
                (Transient.probe r "n8")
                (Transient.probe clean.(i) "n8"))
        outcomes)

(* ------------------------------------------------------------------ *)
(* [Injection.prewarm_noisy] is the library's batch caller: it must
   publish exactly what an uncached [noisy] computes, solve nothing
   twice, and stand aside without a cache or under a fault plan (whose
   solve-index assignment a warm-up would reorder). *)

let test_prewarm_noisy () =
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_ii 3 in
  let taus = Noise.Scenario.taus scen in
  let reference = Runtime.Engine.reference in
  let cached () = Runtime.Engine.with_cache reference (Runtime.Cache.create ()) in
  let engine = cached () in
  let solved, s =
    stats_of (fun () -> Noise.Injection.prewarm_noisy ~engine scen taus)
  in
  Alcotest.(check int) "every alignment solved" (Array.length taus) solved;
  Alcotest.(check int) "through the batch API" (Array.length taus)
    s.Transient.Stats.batched_solves;
  Array.iteri
    (fun i tau ->
      let warm, s =
        stats_of (fun () -> Noise.Injection.noisy ~engine scen ~tau)
      in
      Alcotest.(check int) (Printf.sprintf "tau %d: cache hit" i) 0
        s.Transient.Stats.sims;
      let cold = Noise.Injection.noisy ~engine:reference scen ~tau in
      wave_identical (Printf.sprintf "tau %d: far end" i)
        warm.Noise.Injection.far cold.Noise.Injection.far;
      wave_identical (Printf.sprintf "tau %d: receiver" i)
        warm.Noise.Injection.rcv cold.Noise.Injection.rcv)
    taus;
  let idle label engine =
    let solved, s =
      stats_of (fun () -> Noise.Injection.prewarm_noisy ~engine scen taus)
    in
    Alcotest.(check int) (label ^ ": returns 0") 0 solved;
    Alcotest.(check int) (label ^ ": solves nothing") 0 s.Transient.Stats.sims
  in
  idle "second call" engine;
  idle "no cache" reference;
  Fun.protect ~finally:disarm_tran (fun () ->
      arm_tran (Faultplan.Nth { n = 0 });
      idle "fault plan armed" (cached ()))

let suite =
  ( "batch",
    [
      case "run_batch: byte-identical to scalar loop (Config II, mixed, \
            adaptive)"
        test_batch_matches_scalar_loop;
      case "run_batch: fault plan assigned by solve index"
        test_batch_fault_assignment_matches_loop;
      slow_case "run_batch: deadline cancels only the slow case"
        test_batch_deadline_cancels_one_case;
      case "prewarm_noisy: publishes uncached waves, solves once"
        test_prewarm_noisy;
    ] )
