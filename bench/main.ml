(* Benchmark harness: regenerates every table and figure of the paper.

   Sections (select by passing their names as arguments; default all):
     figure1  — the experimental setup (Figure 1): topology summary and
                interconnect sanity checks
     figure2  — rho_noiseless / rho_eff / Gamma_eff / v_out_eff series
                (Figure 2a and 2b)
     table1   — accuracy comparison across all techniques (Table 1)
     runtime  — per-technique extraction latency and the SGDP cost vs P
                sweep (Section 4.2), measured with Bechamel, plus the
                fixed-vs-adaptive stepping comparison
     ablation — SGDP design-choice ablations (DESIGN.md)
     nonoverlap — the two-stage-buffer receiver extension (the paper's
                non-overlapping-transition case)
     worstcase — worst-aggressor-alignment search (noise-aware STA)
     sweep    — branch-and-bound pruned alignment search on the Config
                II grid vs the exhaustive sweep (solve counts, worst-case
                drift within the coverage slack)
     corners  — technique accuracy across process corners
     montecarlo — randomized alignment/polarity error percentiles
     awe      — moment-matched interconnect model vs transient sim

   Explicit-only sections (run only when named; see --help for their
   flags: --clients --reqs --queue-depth --connect --misbehave
   --inject-net-faults --fuzz-count --kill-count --kill-seed
   --recovery-budget):
     serve    — load test of the sta_serve daemon, in-process or over
                --connect: sheds, protocol errors, byte identity
     chaos    — service-boundary chaos: misbehaving clients, injected
                network and disk-cache faults, breaker open/re-close,
                and a seeded protocol fuzz sweep
     crash    — crash-safety drill: SIGKILL a supervised, journaled
                daemon mid-load; zero acknowledged-and-lost requests and
                bounded recovery

   Options:
     --cases N      per-configuration case count (default 100 here; the
                    paper's full 200 is used by `bin/sta_main.exe table1
                    --cases 200`, see EXPERIMENTS.md)
     --jobs N       worker domains for the simulation sweeps (default 1;
                    results are byte-identical to the sequential run)
     --engine NAME  solver engine preset: reference | accurate | fast
                    (default reference, the fixed-step grid; the Noise
                    harnesses set the step per solve: 2 ps for full
                    chains, 1 ps for receiver replays)
     --ltetol X     adaptive LTE tolerance in volts; implies adaptive
                    stepping on top of the selected engine
     --no-cache     disable the simulation memo cache
     --cache-dir D  on-disk cache directory (default .noisy_sta_cache;
                    repeated invocations skip already-simulated cases)
     --metrics      print the Runtime.Metrics report after the run
     --json FILE    write machine-readable results (table rows plus the
                    metrics snapshot) for cross-PR perf tracking
     --retries N    resilience ladder attempt budget (total attempts
                    including the first; default: the policy's own)
     --fallback P   resilience policy: standard | none
     --checkpoint D journal completed table1/montecarlo cases under D;
                    an interrupted sweep resumes from the journal
     --inject-faults SPEC
                    deterministic fault injection for resilience
                    testing: nth:N | RATE[@SEED], prefix nan: for
                    corrupted-waveform faults or slow: for stalled
                    solves (e.g. 0.1@7, nan:nth:3, slow:nth:5)
     --deadline MS  per-solve wall-clock budget in milliseconds; an
                    expired solve becomes a typed deadline_exceeded
                    failure instead of hanging the sweep
     --ladder LIST  comma-separated technique names for the Gamma_eff
                    degradation ladder (default SGDP,WLS5,LSF3,E4,P1)
     --guard        enable the differential accuracy guard: a
                    deterministic sample of fast-engine cases is
                    re-checked against the reference preset
     --guard-every N  guard sampling stride (default 8; 1 = every case)
     --guard-tol-ps X guard delay tolerance in picoseconds (default 1)
     --batch N      batch width: group size of table1's pre-solve pass
                    and the pool chunk (default 16; 1 skips the
                    pre-solve pass)
     --compare FILE regression gate for the sweep section: fail when
                    the pruned solve count grew >25% over FILE (a
                    previous --json output)

   Performance is judged by the repository benchmark, bench/ledger
   (see its README); this program regenerates the paper's results. *)

(* The engine/runtime flags are the shared Runtime.Cli set; the parsed
   spec lands here before any section runs. *)
let cli : Runtime.Cli.spec option ref = ref None
let cli_spec () = Option.get !cli

let cases = ref 100
let want_metrics = ref false
let json_out : string option ref = ref None
let sections : string list ref = ref []
let checkpoint_dir : string option ref = ref None
let ladder_names : string list option ref = ref None
let compare_file : string option ref = ref None
let exit_code = ref 0

let ladder =
  lazy
    (match !ladder_names with
    | Some names -> Eqwave.Ladder.of_names names
    | None -> Eqwave.Ladder.default)

(* The one engine every sweep below runs on: the shared Runtime.Cli
   assembly (preset solver config with the flag overrides layered on,
   plus the pool and cache the whole run shares). *)
let engine = lazy (Runtime.Cli.engine_of_spec (cli_spec ()))
let pool = lazy (Runtime.Engine.pool (Lazy.force engine))
let cache = lazy (Runtime.Engine.cache (Lazy.force engine))

let metrics = Runtime.Metrics.create ()

let section_enabled wanted = !sections = [] || List.mem wanted !sections

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

let figure1 () =
  header "Figure 1: experimental setup";
  List.iter
    (fun scen ->
      let ckt, _ = Noise.Scenario.build scen ~aggressor_active:true ~tau:1e-9 in
      Printf.printf "%s: %s\n" scen.Noise.Scenario.name
        (Spice.Circuit.summary ckt);
      let line = scen.Noise.Scenario.line in
      Printf.printf
        "  line: R=%.1f ohm C=%.1f fF over %d sections; Cm=%.0f fF/pair\n"
        line.Interconnect.Rcline.rtotal
        (line.Interconnect.Rcline.ctotal *. 1e15)
        line.Interconnect.Rcline.nsegs
        (scen.Noise.Scenario.cm_total *. 1e15);
      Printf.printf "  line Elmore delay: %.2f ps (discrete %.2f ps)\n"
        (Interconnect.Rcline.elmore line *. 1e12)
        (Interconnect.Rcline.elmore_discrete line *. 1e12);
      let th = Device.Process.thresholds scen.Noise.Scenario.proc in
      let r = Noise.Injection.noiseless ~engine:(Lazy.force engine) scen in
      let show name w =
        match
          (Waveform.Wave.arrival w th, Waveform.Wave.slew w th)
        with
        | Some a, Some s ->
            Printf.printf "  noiseless %s: arrival %.1f ps, slew %.1f ps\n"
              name (a *. 1e12) (s *. 1e12)
        | _ -> Printf.printf "  noiseless %s: (no transition?)\n" name
      in
      show "in_u (victim far end)" r.Noise.Injection.far;
      show "out_u (receiver out)" r.Noise.Injection.rcv)
    [ Noise.Scenario.config_i; Noise.Scenario.config_ii ]

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)

let representative_tau scen =
  (* An alignment where the aggressor meaningfully distorts the victim
     transition: slightly after the victim launch. *)
  scen.Noise.Scenario.victim_t0

let figure2 () =
  header "Figure 2: sensitivity and equivalent waveforms";
  let scen = Noise.Scenario.config_i in
  let th = Device.Process.thresholds scen.Noise.Scenario.proc in
  let noiseless = Noise.Injection.noiseless ~engine:(Lazy.force engine) scen in
  let tau = representative_tau scen in
  let noisy = Noise.Injection.noisy ~engine:(Lazy.force engine) scen ~tau in
  let ctx = Noise.Injection.ctx_of_runs scen ~noiseless ~noisy in
  let sens = Eqwave.Sensitivity.compute ctx in
  let region_nl = Eqwave.Technique.noiseless_critical_region ctx in
  let region_ny = Eqwave.Technique.noisy_critical_region ctx in
  Printf.printf
    "victim transition with aggressor at tau = %.0f ps\n\
     noiseless critical region [%.0f, %.0f] ps; noisy [%.0f, %.0f] ps\n\
     peak |rho| = %.2f\n"
    (tau *. 1e12)
    (fst region_nl *. 1e12) (snd region_nl *. 1e12)
    (fst region_ny *. 1e12) (snd region_ny *. 1e12)
    (Eqwave.Sensitivity.peak sens);
  let gamma = Eqwave.Sgdp.sgdp.Eqwave.Technique.run ctx in
  Printf.printf "SGDP Gamma_eff: arrival %.1f ps, slew %.1f ps\n"
    (Waveform.Ramp.arrival gamma th *. 1e12)
    (Waveform.Ramp.slew gamma th *. 1e12);
  let v_out_eff =
    Noise.Injection.receiver_response ~engine:(Lazy.force engine) scen
      ~input:(Spice.Source.of_ramp gamma) ~tstop:scen.Noise.Scenario.tstop
  in
  let v_out_ref =
    Noise.Injection.receiver_response ~engine:(Lazy.force engine) scen
      ~input:(Spice.Source.of_wave noisy.Noise.Injection.far)
      ~tstop:scen.Noise.Scenario.tstop
  in
  (* Figure 2a series: v_in, v_out, 0.2 x rho over the noiseless region;
     Figure 2b series: noisy input, Gamma_eff, 0.2 x rho_eff, outputs. *)
  Printf.printf
    "\n  t(ps)   v_nl_in  v_nl_out  0.2*rho | v_noisy  Gamma   0.2*rho_eff  v_out_eff  v_out_ref\n";
  let t0 = fst region_ny -. 100e-12 and t1 = snd region_ny +. 150e-12 in
  let samples = 28 in
  let rho_eff_at =
    let ts1 = Array.init 256 (fun i ->
        t0 +. ((t1 -. t0) *. float_of_int i /. 255.0)) in
    let rho, _ = Eqwave.Sgdp.rho_eff sens ctx ts1 in
    fun t ->
      let i =
        int_of_float ((t -. t0) /. (t1 -. t0) *. 255.0)
        |> Int.max 0 |> Int.min 255
      in
      rho.(i)
  in
  for i = 0 to samples - 1 do
    let t = t0 +. ((t1 -. t0) *. float_of_int i /. float_of_int (samples - 1)) in
    Printf.printf
      "  %6.0f   %6.3f   %6.3f   %6.3f | %6.3f   %6.3f   %6.3f       %6.3f     %6.3f\n"
      (t *. 1e12)
      (Waveform.Wave.value_at ctx.Eqwave.Technique.noiseless_in t)
      (Waveform.Wave.value_at ctx.Eqwave.Technique.noiseless_out t)
      (0.2 *. Eqwave.Sensitivity.rho_at_time sens t)
      (Waveform.Wave.value_at ctx.Eqwave.Technique.noisy_in t)
      (Waveform.Ramp.value_at gamma t)
      (0.2 *. rho_eff_at t)
      (Waveform.Wave.value_at v_out_eff t)
      (Waveform.Wave.value_at v_out_ref t)
  done;
  match
    (Waveform.Wave.arrival v_out_eff th, Waveform.Wave.arrival v_out_ref th)
  with
  | Some a, Some b ->
      Printf.printf
        "\nv_out_eff vs reference output arrival: %.1f vs %.1f ps (err %.1f ps)\n"
        (a *. 1e12) (b *. 1e12)
        ((a -. b) *. 1e12)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

(* (scenario, elapsed seconds, rows, degradation) per configuration,
   for --json. *)
let table1_results :
    (string * float * Noise.Eval.row list * Noise.Eval.degradation_summary)
    list ref = ref []

let table1 () =
  header (Printf.sprintf "Table 1: accuracy comparison (%d cases/config)" !cases);
  List.iter
    (fun scen ->
      let scen = Noise.Scenario.with_cases scen !cases in
      let t0 = Unix.gettimeofday () in
      let table =
        Noise.Eval.run_table ~engine:(Lazy.force engine)
          ~ladder:(Lazy.force ladder)
          ?checkpoint_dir:!checkpoint_dir
          ~progress:(fun k n ->
            if k mod 25 = 0 then Printf.eprintf "  %s: %d/%d\r%!" scen.Noise.Scenario.name k n)
          scen
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Printf.eprintf "%40s\r%!" "";
      Format.printf "%a@." Noise.Eval.pp_table table;
      Printf.printf "(%.1f s)\n" elapsed;
      table1_results :=
        !table1_results
        @ [
            ( scen.Noise.Scenario.name,
              elapsed,
              table.Noise.Eval.rows,
              table.Noise.Eval.degradation );
          ])
    [ Noise.Scenario.config_i; Noise.Scenario.config_ii ]

(* --json fragments are Server.Json values: its printer renders a
   non-finite number (the percentile of an empty sample) as null. *)
let jint n = Server.Json.Num (float_of_int n)

(* Each section's --json fragment, in run order. *)
let json_sections : (string * Server.Json.t) list ref = ref []
let add_json name j = json_sections := !json_sections @ [ (name, j) ]

(* ------------------------------------------------------------------ *)
(* Runtime comparison (Section 4.2) via Bechamel                       *)

let bench_ctx =
  lazy
    (let scen = Noise.Scenario.config_i in
     let noiseless = Noise.Injection.noiseless ~engine:(Lazy.force engine) scen in
     let noisy =
       Noise.Injection.noisy ~engine:(Lazy.force engine) scen
         ~tau:(representative_tau scen)
     in
     Noise.Injection.ctx_of_runs scen ~noiseless ~noisy)

let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"t" tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      match Analyze.OLS.estimates est with
      | Some (v :: _) -> rows := (name, v) :: !rows
      | _ -> ())
    results;
  List.sort compare !rows

let runtime () =
  header "Section 4.2: run-time comparison (per-gate extraction)";
  let ctx = Lazy.force bench_ctx in
  let tests =
    List.map
      (fun (tech : Eqwave.Technique.t) ->
        Bechamel.Test.make ~name:tech.Eqwave.Technique.name
          (Bechamel.Staged.stage (fun () ->
               match tech.Eqwave.Technique.run ctx with
               | (_ : Waveform.Ramp.t) -> ()
               | exception Eqwave.Technique.Unsupported _ -> ())))
      Eqwave.Registry.all
  in
  Printf.printf "equivalent-waveform extraction, P = %d samples:\n"
    ctx.Eqwave.Technique.samples;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-12s %10.2f us/gate\n" name (ns /. 1e3))
    (run_bechamel tests);
  (* SGDP cost vs P (the paper: smaller P is cheaper but less accurate). *)
  Printf.printf "\nSGDP extraction cost vs P:\n";
  let p_tests =
    List.map
      (fun p ->
        let ctx = { ctx with Eqwave.Technique.samples = p } in
        Bechamel.Test.make ~name:(Printf.sprintf "P=%03d" p)
          (Bechamel.Staged.stage (fun () ->
               match Eqwave.Sgdp.sgdp.Eqwave.Technique.run ctx with
               | (_ : Waveform.Ramp.t) -> ()
               | exception Eqwave.Technique.Unsupported _ -> ())))
      [ 5; 10; 20; 35; 70; 140 ]
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-12s %10.2f us/gate\n" name (ns /. 1e3))
    (run_bechamel p_tests);
  (* Accuracy vs P on a small sweep, completing the paper's cost-vs-
     accuracy remark. *)
  Printf.printf "\nSGDP accuracy vs P (20-case Config I sweep):\n";
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_i 20 in
  List.iter
    (fun p ->
      let table =
        Noise.Eval.run_table ~samples:p ~engine:(Lazy.force engine)
          ~techniques:[ Eqwave.Sgdp.sgdp ] scen
      in
      match table.Noise.Eval.rows with
      | [ row ] ->
          Printf.printf "  P=%-4d max %.1f ps avg %.1f ps (failed %d)\n" p
            row.Noise.Eval.max_abs_ps row.Noise.Eval.avg_abs_ps
            row.Noise.Eval.n_failed
      | _ -> ())
    [ 5; 10; 20; 35; 70 ];
  (* Fixed-grid vs LTE-adaptive stepping on a Config I slice: accepted
     step counts, gate-delay drift, and parallel determinism. Fresh
     engines with no cache so the step counters measure real solver
     work, not memo hits. *)
  let n = Int.min !cases 20 in
  Printf.printf "\nadaptive vs fixed stepping (%d-case Config I sweep):\n" n;
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_i n in
  let sweep engine =
    let before = Spice.Transient.Stats.snapshot () in
    let t0 = Unix.gettimeofday () in
    let table =
      Noise.Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] ~engine scen
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let d = Spice.Transient.Stats.(diff (snapshot ()) before) in
    (List.map (fun c -> c.Noise.Eval.delay_ref) table.Noise.Eval.cases, d, elapsed)
  in
  let fixed_engine = Runtime.Engine.reference in
  (* Compare against the CLI engine when it is adaptive, else the stock
     adaptive defaults on the reference config. *)
  let adaptive_solver =
    let e = Lazy.force engine in
    if Runtime.Engine.is_adaptive e then Runtime.Engine.solver e
    else Spice.Transient.(with_adaptive default_config)
  in
  let adaptive_engine =
    Runtime.Engine.make ~name:"adaptive" ~solver:adaptive_solver ()
  in
  let d_fixed, s_fixed, t_fixed = sweep fixed_engine in
  let d_adapt, s_adapt, t_adapt = sweep adaptive_engine in
  let deltas_ps =
    List.map2 (fun a b -> abs_float (a -. b) *. 1e12) d_fixed d_adapt
  in
  let max_delta = List.fold_left Float.max 0.0 deltas_ps in
  let avg_delta =
    List.fold_left ( +. ) 0.0 deltas_ps /. float_of_int (List.length deltas_ps)
  in
  let open Spice.Transient.Stats in
  let ratio = float_of_int s_fixed.steps /. float_of_int s_adapt.steps in
  Printf.printf
    "  fixed    %8d accepted steps              %6.1f s\n\
    \  adaptive %8d accepted steps (%d rejected) %6.1f s\n\
    \  step ratio %.2fx fewer; gate-delay drift max %.4f ps avg %.4f ps\n"
    s_fixed.steps t_fixed s_adapt.steps s_adapt.rejected_steps t_adapt ratio
    max_delta avg_delta;
  (* Determinism: the adaptive sweep on two domains must reproduce the
     sequential result bit-for-bit. *)
  let pool2 = Runtime.Pool.create ~jobs:2 () in
  let d_par, _, _ =
    sweep (Runtime.Engine.with_pool adaptive_engine pool2)
  in
  Runtime.Pool.shutdown pool2;
  let deterministic =
    List.for_all2
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      d_adapt d_par
  in
  Printf.printf "  parallel (2 jobs) identical to sequential: %b\n" deterministic;
  add_json "adaptive"
    Server.Json.(Obj
       [
         ("n_cases", jint n);
         ("fixed_steps", jint s_fixed.steps);
         ("adaptive_steps", jint s_adapt.steps);
         ("adaptive_rejected", jint s_adapt.rejected_steps);
         ("step_ratio", Num ratio);
         ("max_delay_delta_ps", Num max_delta);
         ("avg_delay_delta_ps", Num avg_delta);
         ("fixed_elapsed_s", Num t_fixed);
         ("adaptive_elapsed_s", Num t_adapt);
         ("parallel_deterministic", Bool deterministic);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  header "SGDP ablations (design choices)";
  let variants =
    [
      ("SGDP (full)", Eqwave.Sgdp.sgdp);
      ( "no 2nd-order term",
        Eqwave.Sgdp.(make { default_options with second_order = false }) );
      ( "no commit masking",
        Eqwave.Sgdp.(make { default_options with commit_masking = false }) );
      ( "no overlap align",
        Eqwave.Sgdp.(make { default_options with align_non_overlapping = false })
      );
    ]
  in
  let techniques = List.map snd variants in
  let n = Int.min !cases 60 in
  List.iter
    (fun scen ->
      let scen = Noise.Scenario.with_cases scen n in
      let table =
        Noise.Eval.run_table ~techniques ~engine:(Lazy.force engine) scen
      in
      Printf.printf "%s (%d cases):\n" scen.Noise.Scenario.name n;
      List.iteri
        (fun i row ->
          Printf.printf "  %-20s max %6.1f ps avg %6.1f ps (failed %d)\n"
            (fst (List.nth variants i))
            row.Noise.Eval.max_abs_ps row.Noise.Eval.avg_abs_ps
            row.Noise.Eval.n_failed)
        table.Noise.Eval.rows)
    [ Noise.Scenario.config_i; Noise.Scenario.config_ii ]

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)

let nonoverlap () =
  header "Extension: two-stage buffer receiver (non-overlapping case)";
  let n = Int.min !cases 60 in
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_i_buffer n in
  let table =
    Noise.Eval.run_table ~engine:(Lazy.force engine) scen
  in
  Format.printf "%a@." Noise.Eval.pp_table table;
  Printf.printf
    "(WLS5's failures here are the paper's point: with a multi-stage\n\
    \ receiver the sensitivity window thins out and the weighted fit\n\
    \ degenerates, while SGDP's alignment step keeps it defined.)\n"

let worstcase () =
  header "Extension: worst-case aggressor alignment search";
  List.iter
    (fun scen ->
      let t0 = Unix.gettimeofday () in
      let r =
        Noise.Worst_case.search ~coarse:16 ~refine:8
          ~engine:(Lazy.force engine) scen
      in
      Format.printf "%s: %a  [%.1f s]@." scen.Noise.Scenario.name
        Noise.Worst_case.pp r
        (Unix.gettimeofday () -. t0))
    [ Noise.Scenario.config_i; Noise.Scenario.config_ii ]

(* ------------------------------------------------------------------ *)
(* Sweep: branch-and-bound alignment pruning                           *)

(* Compare against the "sweep" object of a previous --json output. *)
let sweep_compare ~pruned_solves path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "  REGRESSION vs %s: %s\n" path msg;
        exit_code := 1)
      fmt
  in
  match
    Server.Json.parse (In_channel.with_open_text path In_channel.input_all)
  with
  | Error msg -> fail "unparseable baseline: %s" msg
  | Ok doc -> (
      let baseline key =
        Option.bind
          (Option.bind (Server.Json.member "sweep" doc) (Server.Json.member key))
          Server.Json.to_float
      in
      match baseline "pruned_solves" with
      | None -> fail "baseline has no sweep.pruned_solves"
      | Some base ->
          let limit = int_of_float (Float.round (base *. 1.25)) in
          if pruned_solves > limit then
            fail "pruned sweep took %d solves, baseline %.0f (>25%% more)"
              pruned_solves base
          else
            Printf.printf "  pruned solves %d vs baseline %.0f: ok\n"
              pruned_solves base)

let sweep_stage () =
  header "Sweep: branch-and-bound alignment search";
  let n = !cases in
  let scen = Noise.Scenario.with_cases Noise.Scenario.config_ii n in
  let s = cli_spec () in
  let tol =
    if s.Runtime.Cli.prune_tol_ps > 0.0 then s.Runtime.Cli.prune_tol_ps
    else 2.0
  in
  (* Each side gets the CLI engine and the shared pool but a fresh
     in-memory cache, so the second sweep cannot ride on the first
     one's published waveforms and the solve counts are honest. *)
  let mk_engine () =
    let e =
      Runtime.Cli.engine_of_spec { s with jobs = 1; use_cache = false }
    in
    let e =
      match Lazy.force pool with
      | Some p -> Runtime.Engine.with_pool e p
      | None -> e
    in
    Runtime.Engine.with_cache e (Runtime.Cache.create ())
  in
  let run config =
    let engine = mk_engine () in
    let noiseless = Noise.Injection.noiseless ~engine scen in
    let t0 = Unix.gettimeofday () in
    let r = Noise.Alignment.search ~config ~engine scen ~noiseless in
    (r, Unix.gettimeofday () -. t0)
  in
  let ex, t_ex =
    run { Noise.Alignment.default with Noise.Alignment.prune_tol_ps = 0.0 }
  in
  let pr, t_pr =
    run { Noise.Alignment.default with Noise.Alignment.prune_tol_ps = tol }
  in
  (* Guard sample: every alignment the pruned search did solve must
     measure the exact delay the exhaustive sweep measured there. *)
  let guard_disagreements = ref 0 and guard_drift = ref 0.0 in
  Array.iteri
    (fun i d ->
      match (d, ex.Noise.Alignment.delays.(i)) with
      | Some a, Some b ->
          if a <> b then begin
            incr guard_disagreements;
            guard_drift := Float.max !guard_drift (abs_float (a -. b))
          end
      | Some _, None -> incr guard_disagreements (* can't happen *)
      | _ -> ())
    pr.Noise.Alignment.delays;
  let guard_drift_ps = !guard_drift *. 1e12 in
  (* The worst case itself is only promised to within the coverage
     slack: the search may settle on a different grid point whose
     delay trails the true maximum by at most tol. *)
  let drift_ps =
    abs_float (pr.Noise.Alignment.best_delay -. ex.Noise.Alignment.best_delay)
    *. 1e12
  in
  let solves_ex = ex.Noise.Alignment.stats.Noise.Alignment.solved in
  let solves_pr = pr.Noise.Alignment.stats.Noise.Alignment.solved in
  let solve_ratio =
    if solves_pr > 0 then float_of_int solves_ex /. float_of_int solves_pr
    else 0.0
  in
  Printf.printf
    "  %d-point Config II alignment grid, tol %.1f ps\n\
    \  exhaustive    %4d solves  [%.1f s]\n\
    \  pruned        %4d solves  [%.1f s]  (%d pruned, %d rounds)\n\
    \  %.1fx fewer transient solves; worst case tau %.1f ps, delay %.2f ps\n\
    \  best-delay drift %.6f ps (slack %.1f ps); guard sample: %d \
     disagreements, drift %.3f ps\n"
    n tol solves_ex t_ex solves_pr t_pr
    pr.Noise.Alignment.stats.Noise.Alignment.pruned
    pr.Noise.Alignment.stats.Noise.Alignment.rounds solve_ratio
    (pr.Noise.Alignment.best_tau *. 1e12)
    (pr.Noise.Alignment.best_delay *. 1e12)
    drift_ps tol !guard_disagreements guard_drift_ps;
  if drift_ps > tol then begin
    Printf.printf
      "  FAIL: worst-case delay drifted %.6f ps, beyond the %.1f ps slack\n"
      drift_ps tol;
    exit_code := 1
  end;
  if !guard_disagreements > 0 then begin
    Printf.printf
      "  FAIL: solved alignments must match the exhaustive sweep \
       byte-for-byte\n";
    exit_code := 1
  end;
  if n >= 100 && solve_ratio < 4.0 then begin
    Printf.printf "  FAIL: expected >= 4x fewer solves, got %.1fx\n"
      solve_ratio;
    exit_code := 1
  end;
  if n >= 200 && solves_pr > 40 then begin
    Printf.printf "  FAIL: pruned sweep took %d solves (budget 40)\n"
      solves_pr;
    exit_code := 1
  end;
  add_json "sweep"
    Server.Json.(Obj
       [
         ("n_cases", jint n);
         ("prune_tol_ps", Num tol);
         ("exhaustive_solves", jint solves_ex);
         ("pruned_solves", jint solves_pr);
         ("pruned", jint
            pr.Noise.Alignment.stats.Noise.Alignment.pruned);
         ("rounds", jint
            pr.Noise.Alignment.stats.Noise.Alignment.rounds);
         ("solve_ratio", Num solve_ratio);
         ("exhaustive_elapsed_s", Num t_ex);
         ("pruned_elapsed_s", Num t_pr);
         ( "best_tau_ps",
           Num (pr.Noise.Alignment.best_tau *. 1e12) );
         ( "best_delay_ps",
           Num (pr.Noise.Alignment.best_delay *. 1e12) );
         ("drift_ps", Num drift_ps);
         ("guard_disagreements", jint !guard_disagreements);
         ("guard_drift_ps", Num guard_drift_ps);
       ]);
  match !compare_file with
  | Some path -> sweep_compare ~pruned_solves:solves_pr path
  | None -> ()

let corners () =
  header "Extension: accuracy across process corners (Config I)";
  let n = Int.min !cases 40 in
  let techniques = [ Eqwave.Wls.wls5; Eqwave.Sgdp.sgdp ] in
  List.iter
    (fun proc ->
      let scen =
        Noise.Scenario.with_cases { Noise.Scenario.config_i with proc } n
      in
      let table =
        Noise.Eval.run_table ~techniques ~engine:(Lazy.force engine) scen
      in
      Printf.printf "%s corner (%d cases):\n" proc.Device.Process.name n;
      List.iter
        (fun row ->
          Printf.printf "  %-6s max %6.1f ps avg %6.1f ps (failed %d)\n"
            row.Noise.Eval.name row.Noise.Eval.max_abs_ps
            row.Noise.Eval.avg_abs_ps row.Noise.Eval.n_failed)
        table.Noise.Eval.rows)
    Device.Process.[ c13_fast; c13; c13_slow ]

let montecarlo () =
  header "Extension: Monte-Carlo alignment & polarity sampling";
  let n = Int.min !cases 60 in
  List.iter
    (fun scen ->
      let _, summaries =
        Noise.Montecarlo.run ~samples:n ~engine:(Lazy.force engine)
          ?checkpoint_dir:!checkpoint_dir scen
      in
      Printf.printf "%s (%d samples):\n" scen.Noise.Scenario.name n;
      Format.printf "%a@." Noise.Montecarlo.pp_summary summaries)
    [ Noise.Scenario.config_i ]

let awe () =
  header "Extension: AWE moment matching vs transient simulation";
  let specs =
    [
      ("Figure-1 line (1000 um)", Noise.Scenario.config_i.Noise.Scenario.line);
      ("Figure-1 line (500 um)", Noise.Scenario.config_ii.Noise.Scenario.line);
      ("resistive net", Interconnect.Rcline.{ rtotal = 500.0; ctotal = 300e-15; nsegs = 10 });
    ]
  in
  Printf.printf "%-24s %12s %12s %12s\n" "net" "elmore*ln2" "AWE-2pole"
    "spice t50";
  List.iter
    (fun (name, spec) ->
      let open Spice in
      let ckt = Circuit.create () in
      let near = Circuit.node ckt "in" in
      Circuit.vsource ckt near (Source.pwl [ (0.0, 0.0); (1e-14, 1.0) ]);
      let far = Interconnect.Rcline.build ckt ~prefix:"w" ~near spec in
      let far_name = Circuit.node_name ckt far in
      let ms =
        Interconnect.Awe.moments_of_circuit ckt ~input:"in" ~output:far_name
          ~order:5
      in
      let model = Interconnect.Awe.pade ms in
      let awe_d = Interconnect.Awe.delay model in
      let span = Float.max 50e-12 (40.0 *. Interconnect.Rcline.elmore spec) in
      let config =
        { Transient.default_config with dt = span /. 4000.0; tstop = span }
      in
      let res = Transient.run ~config ckt in
      let t50 =
        match
          Waveform.Wave.first_crossing (Transient.probe res far_name) 0.5
        with
        | Some t -> t
        | None -> nan
      in
      Printf.printf "%-24s %10.2f ps %10.2f ps %10.2f ps\n" name
        (log 2.0 *. Interconnect.Rcline.elmore spec *. 1e12)
        (awe_d *. 1e12) (t50 *. 1e12))
    specs

(* ------------------------------------------------------------------ *)
(* serve — load-test the sta_serve daemon.

   Explicit-only section (never part of the default sweep): spin up an
   in-process daemon (or connect to an external one via --connect),
   drive --clients concurrent synthetic clients through a small
   deterministic request mix, and report throughput, latency
   percentiles, shed rate, cache hit rate, and whether every non-shed
   socket response was byte-identical to a direct Protocol.execute
   rendering on the same engine.                                       *)

let serve_clients = ref 1000
let serve_reqs = ref 4
let serve_connect : string option ref = ref None
let serve_queue_depth = ref 64

let serve_parse_connect s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt tail with
      | Some port when host <> "" -> Server.Client.Tcp (host, port)
      | _ -> Server.Client.Unix_path s)
  | None -> Server.Client.Unix_path s

(* The deterministic request mix: request [i] always has id [i], so
   the expected response bytes for id [i] are computable offline. *)
let serve_requests () =
  let configs = [ "i"; "ii" ] in
  let delay_taus = [ 20.; 40.; 60.; 80.; 100.; 120. ] in
  let gamma_taus = [ 30.; 70.; 110. ] in
  let reqs = ref [] in
  List.iter
    (fun config ->
      List.iter
        (fun tau_ps ->
          reqs :=
            Server.Protocol.Delay
              { config; tau = tau_ps *. 1e-12; technique = "SGDP" }
            :: !reqs)
        delay_taus;
      List.iter
        (fun tau_ps ->
          reqs :=
            Server.Protocol.Gamma
              { config; tau = tau_ps *. 1e-12; ladder = None }
            :: !reqs)
        gamma_taus)
    configs;
  Array.of_list
    (List.mapi
       (fun i query -> { Server.Protocol.id = i; query; deadline_ms = None })
       (List.rev !reqs))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int (n - 1))))

(* /health status of an in-process daemon, for the serve/chaos/crash
   sections' health-transition assertions. *)
let daemon_health_status d =
  match Server.Json.member "status" (Server.Daemon.health d) with
  | Some (Server.Json.Str s) -> s
  | _ -> "?"

let daemon_health_reason d reason =
  match Server.Json.member "reasons" (Server.Daemon.health d) with
  | Some (Server.Json.Arr rs) -> List.mem (Server.Json.Str reason) rs
  | _ -> false

let serve_stage () =
  header "sta_serve load";
  let requests = serve_requests () in
  let daemon, addr =
    match !serve_connect with
    | Some s -> (None, serve_parse_connect s)
    | None ->
        let sock =
          Printf.sprintf "/tmp/sta_bench_%d.sock" (Unix.getpid ())
        in
        let config =
          {
            Server.Daemon.default_config with
            addr = Server.Client.Unix_path sock;
            engine = Lazy.force engine;
            queue_depth = !serve_queue_depth;
          }
        in
        (Some (Server.Daemon.start config), Server.Client.Unix_path sock)
  in
  (* Engine for the offline byte-identity rendering: the daemon's own
     engine when in-process, else the preset the external daemon
     reports over ping. *)
  let compare_engine =
    match daemon with
    | Some _ -> Lazy.force engine
    | None -> (
        let c = Server.Client.connect addr in
        let e =
          match Server.Client.ping c with
          | Ok doc -> (
              match Server.Json.(member "ok" doc) with
              | Some ok -> (
                  match Server.Json.(member "engine" ok) with
                  | Some (Server.Json.Str name) -> (
                      match Runtime.Engine.of_name name with
                      | e -> e
                      | exception Invalid_argument _ -> Lazy.force engine)
                  | _ -> Lazy.force engine)
              | None -> Lazy.force engine)
          | Error _ -> Lazy.force engine
        in
        Server.Client.close c;
        Runtime.Engine.with_cache e (Runtime.Cache.create ()))
  in
  (* A fresh in-process daemon (no journal replay, breaker closed,
     empty queue) must report ok before any load. *)
  let health_ok_before =
    match daemon with
    | Some d -> daemon_health_status d = "ok"
    | None -> true
  in
  let n_clients = Int.max 1 !serve_clients in
  let n_reqs = Int.max 1 !serve_reqs in
  let n_distinct = Array.length requests in
  Printf.printf
    "driving %d concurrent clients x %d requests (%d distinct cases) at %s\n%!"
    n_clients n_reqs n_distinct
    (Server.Client.addr_to_string addr);
  (* Per-thread result slots: no shared mutable state during the run. *)
  let latencies = Array.make n_clients [||] in
  let payloads = Array.make n_clients [||] in
  let transport_errors = Array.make n_clients 0 in
  let worker k () =
    match Server.Client.connect ~retries:400 addr with
    | exception _ -> transport_errors.(k) <- transport_errors.(k) + n_reqs
    | client ->
        let lats = Array.make n_reqs nan in
        let pays = Array.make n_reqs (-1, "") in
        for r = 0 to n_reqs - 1 do
          let idx = ((k * n_reqs) + r) mod n_distinct in
          let t0 = Unix.gettimeofday () in
          match Server.Client.call_raw client requests.(idx) with
          | Ok payload ->
              lats.(r) <- (Unix.gettimeofday () -. t0) *. 1e3;
              pays.(r) <- (idx, payload)
          | Error _ ->
              transport_errors.(k) <- transport_errors.(k) + 1
        done;
        Server.Client.close client;
        latencies.(k) <- lats;
        payloads.(k) <- pays
  in
  let t_start = Unix.gettimeofday () in
  let threads =
    Array.init n_clients (fun k -> Thread.create (worker k) ())
  in
  Array.iter Thread.join threads;
  let duration_s = Unix.gettimeofday () -. t_start in
  (* Server-side counters before shutdown. *)
  let stats_counters =
    match Server.Client.connect ~retries:10 addr with
    | exception _ -> []
    | c -> (
        let r =
          Server.Client.call c
            { Server.Protocol.id = 0; query = Server.Protocol.Stats;
              deadline_ms = None }
        in
        Server.Client.close c;
        match r with
        | Ok doc -> (
            match Server.Json.member "ok" doc with
            | Some ok -> (
                match Server.Json.member "counters" ok with
                | Some (Server.Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        match v with
                        | Server.Json.Num x -> Some (k, int_of_float x)
                        | _ -> None)
                      kvs
                | _ -> [])
            | None -> [])
        | Error _ -> [])
  in
  (* Drain; the draining status latches, so /health must keep
     reporting it once stop has run. *)
  let health_draining =
    match daemon with
    | Some d ->
        Server.Daemon.stop d;
        daemon_health_status d = "draining"
    | None -> true
  in
  (* Offline rendering of every distinct case on the same engine. *)
  let expected =
    Array.map
      (fun (req : Server.Protocol.request) ->
        Server.Json.to_string
          (Server.Protocol.response ~id:req.Server.Protocol.id
             (Server.Protocol.execute ~engine:compare_engine
                req.Server.Protocol.query)))
      requests
  in
  let ok_identical = ref 0
  and mismatches = ref 0
  and shed = ref 0
  and queue_timeouts = ref 0
  and other_errors = ref 0 in
  let classify payload idx =
    if payload = expected.(idx) then incr ok_identical
    else
      let code =
        match Server.Json.parse payload with
        | Ok doc -> (
            match Server.Json.member "error" doc with
            | Some err -> (
                match Server.Json.member "code" err with
                | Some (Server.Json.Str c) -> c
                | _ -> "?")
            | None -> "?")
        | Error _ -> "?"
      in
      match code with
      | "overloaded" -> incr shed
      | "queue_timeout" -> incr queue_timeouts
      | "shutting_down" -> incr other_errors
      | _ -> incr mismatches
  in
  Array.iter
    (Array.iter (fun (idx, payload) -> if idx >= 0 then classify payload idx))
    payloads;
  let completed = !ok_identical + !mismatches + !shed + !queue_timeouts + !other_errors in
  let transport = Array.fold_left ( + ) 0 transport_errors in
  let lats =
    Array.concat (Array.to_list latencies)
    |> Array.to_seq
    |> Seq.filter (fun x -> not (Float.is_nan x))
    |> Array.of_seq
  in
  Array.sort compare lats;
  let p50 = percentile lats 0.50
  and p95 = percentile lats 0.95
  and p99 = percentile lats 0.99 in
  let rps = float_of_int completed /. Float.max duration_s 1e-9 in
  let shed_total = !shed + !queue_timeouts in
  let shed_rate =
    if completed > 0 then float_of_int shed_total /. float_of_int completed
    else 0.0
  in
  let counter name =
    match List.assoc_opt name stats_counters with Some v -> v | None -> 0
  in
  let cache_hit_rate =
    let hits = counter "cache.hits" and misses = counter "cache.misses" in
    if hits + misses > 0 then
      float_of_int hits /. float_of_int (hits + misses)
    else 0.0
  in
  let protocol_errors = !mismatches + transport in
  Printf.printf
    "completed %d/%d in %.2f s (%.0f req/s)\n\
     latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n\
     shed %d (overloaded %d, queue_timeout %d) — shed rate %.1f%%\n\
     byte-identical ok responses: %d, mismatches: %d, transport errors: %d\n\
     server counters: accepted %d, shed %d, batches %d; cache hit rate %.1f%%\n%!"
    completed
    ((n_clients * n_reqs) + transport)
    duration_s rps p50 p95 p99 shed_total !shed !queue_timeouts
    (100.0 *. shed_rate) !ok_identical !mismatches transport
    (counter "server.accepted") (counter "server.shed")
    (counter "server.batches")
    (100.0 *. cache_hit_rate);
  Printf.printf "health: ok before load %b, draining after stop %b\n%!"
    health_ok_before health_draining;
  if !mismatches > 0 || transport > 0 then exit_code := 1;
  if not (health_ok_before && health_draining) then exit_code := 1;
  add_json "serve"
    Server.Json.(Obj
       [
         ("clients", jint n_clients);
         ("requests_per_client", jint n_reqs);
         ("distinct_cases", jint n_distinct);
         ("completed", jint completed);
         ("duration_s", Num duration_s);
         ("requests_per_sec", Num rps);
         ("p50_ms", Num p50);
         ("p95_ms", Num p95);
         ("p99_ms", Num p99);
         ("shed", jint shed_total);
         ("shed_overloaded", jint !shed);
         ("shed_queue_timeout", jint !queue_timeouts);
         ("shed_rate", Num shed_rate);
         ("ok_byte_identical", jint !ok_identical);
         ("mismatches", jint !mismatches);
         ("transport_errors", jint transport);
         ("protocol_errors", jint protocol_errors);
         ( "byte_identical",
           Bool (!mismatches = 0) );
         ("cache_hit_rate", Num cache_hit_rate);
         ("server_accepted", jint (counter "server.accepted"));
         ("server_shed", jint (counter "server.shed"));
         ("server_batches", jint (counter "server.batches"));
         ("health_ok_before", Bool health_ok_before);
         ("health_draining", Bool health_draining);
       ])

(* ------------------------------------------------------------------ *)
(* chaos — availability under injected faults.

   Explicit-only section: an in-process daemon with a deliberately
   tight connection budget and read deadline, driven by a client herd
   of which a --misbehave fraction stalls mid-frame, disconnects
   mid-frame, or speaks garbage — under seeded network faults
   (--inject-net-faults) and disk-cache faults
   (--inject-cache-faults, armed for the whole run by the shared CLI
   spec; the stage arms a default plan when neither is given).

   Published invariants, each wired to the exit code:
   - every well-behaved request is eventually answered byte-identically
     to a direct Protocol.execute rendering (retries absorb typed sheds
     and transit corruption);
   - misbehaving peers only ever produce typed failures and reclaimed
     connections, never a wedged or crashed daemon;
   - the disk-cache circuit breaker opens under disk faults and
     re-closes after recovery, with memory shards serving throughout;
   - no connection leaks: the live-connection gauge drains to zero;
   - a large seeded fuzz sweep through Frame -> Json -> Protocol.parse
     yields zero escaped exceptions.                                   *)

let chaos_misbehave = ref 0.25
let chaos_net : Server.Netfault.kind Faultplan.plan option ref = ref None
let chaos_fuzz = ref 100_000

let chaos_stage () =
  header "service-boundary chaos";
  let requests = serve_requests () in
  let n_distinct = Array.length requests in
  let n_total = Int.max 8 !serve_clients in
  let n_reqs = Int.max 1 !serve_reqs in
  let frac = Float.min 1.0 (Float.max 0.0 !chaos_misbehave) in
  let n_bad = int_of_float (frac *. float_of_int n_total) in
  let n_wb = n_total - n_bad in
  (* Disk-backed cache with a tight breaker: the faulted phase must
     open it, recovery must re-close it. *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sta_chaos_cache_%d" (Unix.getpid ()))
  in
  let cooldown_s = 0.3 in
  let chaos_cache =
    Runtime.Cache.create ~disk_dir:cache_dir ~breaker_threshold:4
      ~breaker_cooldown_s:cooldown_s ()
  in
  (* Arm the chaos. Cache faults may already be armed by
     --inject-cache-faults; otherwise use a deterministic default so a
     bare `bench chaos` still exercises the breaker. *)
  let arm_cache_faults rate seed =
    Faultplan.(
      arm Runtime.Cache.faults { kind = None; sel = Fraction { rate; seed } })
  in
  if not (Faultplan.is_armed Runtime.Cache.faults) then
    arm_cache_faults 0.8 11;
  Option.iter (Server.Netfault.arm ~stall_s:0.02) !chaos_net;
  let net_injected_before = Faultplan.injected Server.Netfault.injector in
  let cache_injected_before = Faultplan.injected Runtime.Cache.faults in
  let sock = Printf.sprintf "/tmp/sta_chaos_%d.sock" (Unix.getpid ()) in
  let max_conns = Int.max 8 (n_total / 4) in
  let config =
    {
      Server.Daemon.default_config with
      addr = Server.Client.Unix_path sock;
      engine = Runtime.Engine.with_cache (Lazy.force engine) chaos_cache;
      queue_depth = !serve_queue_depth;
      max_conns;
      read_timeout_s = Some 0.25;
      write_timeout_s = Some 2.0;
      max_frames_per_conn = Some 64;
    }
  in
  let d = Server.Daemon.start config in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name
         (Runtime.Metrics.counters (Server.Daemon.metrics d)))
  in
  (* Expected bytes for every distinct case, rendered offline on an
     identically configured engine. *)
  let compare_engine =
    Runtime.Engine.with_cache (Lazy.force engine) (Runtime.Cache.create ())
  in
  let expected =
    Array.map
      (fun (req : Server.Protocol.request) ->
        Server.Json.to_string
          (Server.Protocol.response ~id:req.Server.Protocol.id
             (Server.Protocol.execute ~engine:compare_engine
                req.Server.Protocol.query)))
      requests
  in
  Printf.printf
    "driving %d clients (%d misbehaving) x %d requests at %s\n\
     max_conns %d, read deadline 0.25 s, net faults %s, cache faults %s\n%!"
    n_total n_bad n_reqs sock max_conns
    (if Faultplan.is_armed Server.Netfault.injector then "armed" else "off")
    (if Faultplan.is_armed Runtime.Cache.faults then "armed" else "off");
  (* Per-thread slots: no shared mutable state during the run. *)
  let served = Array.make (Int.max 1 n_wb) 0 in
  let retried_typed = Array.make (Int.max 1 n_wb) 0 in
  let retried_corrupt = Array.make (Int.max 1 n_wb) 0 in
  let unserved = Array.make (Int.max 1 n_wb) 0 in
  let latencies = Array.make (Int.max 1 n_wb) [||] in
  let classify_nonmatching payload =
    match Server.Json.parse payload with
    | Ok doc -> (
        match Server.Json.member "error" doc with
        | Some _ -> `Typed
        | None -> `Corrupt)
    | Error _ -> `Corrupt
  in
  let wb_worker k () =
    let lats = Array.make n_reqs nan in
    let policy =
      { Server.Client.attempts = 4; base_delay_s = 0.01; max_delay_s = 0.2;
        seed = k }
    in
    for r = 0 to n_reqs - 1 do
      let idx = ((k * n_reqs) + r) mod n_distinct in
      let t0 = Unix.gettimeofday () in
      (* Outer loop: call_raw_with_retry absorbs transport errors and
         recoverable typed sheds; anything else (transit corruption, a
         request corrupted into bad_request) is retried here. Only an
         exhausted budget counts as unserved. *)
      let rec attempt tries =
        if tries >= 6 then unserved.(k) <- unserved.(k) + 1
        else
          match
            Server.Client.call_raw_with_retry ~policy ~retry_recoverable:true
              ~read_timeout_s:2.0 ~write_timeout_s:2.0
              (Server.Client.Unix_path sock) requests.(idx)
          with
          | Ok payload when payload = expected.(idx) ->
              served.(k) <- served.(k) + 1;
              lats.(r) <- (Unix.gettimeofday () -. t0) *. 1e3
          | Ok payload ->
              (match classify_nonmatching payload with
              | `Typed -> retried_typed.(k) <- retried_typed.(k) + 1
              | `Corrupt -> retried_corrupt.(k) <- retried_corrupt.(k) + 1);
              attempt (tries + 1)
          | Error _ -> attempt (tries + 1)
      in
      attempt 0
    done;
    latencies.(k) <- lats
  in
  let bad_worker k () =
    for _r = 0 to n_reqs - 1 do
      match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception _ -> ()
      | fd ->
          (try
             Unix.connect fd (Unix.ADDR_UNIX sock);
             match k mod 3 with
             | 0 ->
                 (* Slowloris: half a header, hold past the deadline. *)
                 ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
                 Thread.delay 0.35
             | 1 ->
                 (* Disconnect mid-frame. *)
                 let b = Bytes.of_string "\x00\x00\x01\x00{\"v\"" in
                 ignore (Unix.write fd b 0 (Bytes.length b))
             | _ ->
                 (* A well-framed garbage payload; the typed bad_request
                    answer is read and dropped. *)
                 Server.Protocol.write_frame fd "\xde\xad not json";
                 ignore (Server.Protocol.read_frame fd)
           with _ -> ());
          (try Unix.close fd with _ -> ())
    done
  in
  let t_start = Unix.gettimeofday () in
  let threads =
    Array.append
      (Array.init n_wb (fun k -> Thread.create (wb_worker k) ()))
      (Array.init n_bad (fun k -> Thread.create (bad_worker k) ()))
  in
  Array.iter Thread.join threads;
  let duration_s = Unix.gettimeofday () -. t_start in
  (* The connection budget must have shed at least once; if the herd's
     timing never exceeded it, saturate deliberately so the typed-shed
     path is exercised on every run. *)
  if counter "server.conn_shed" = 0 then begin
    let extras =
      Array.init (max_conns + 8) (fun _ ->
          match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
          | exception _ -> None
          | fd -> (
              match Unix.connect fd (Unix.ADDR_UNIX sock) with
              | () -> Some fd
              | exception _ ->
                  (try Unix.close fd with _ -> ());
                  None))
    in
    Thread.delay 0.1;
    Array.iter
      (Option.iter (fun fd -> try Unix.close fd with _ -> ()))
      extras
  end;
  (* Breaker: the faulted traffic should have opened it; when the mix
     served entirely from memory, a direct burst of faulted stores
     opens it deterministically. *)
  let wave = Waveform.Wave.create [| 0.0; 1e-12 |] [| 0.0; 1.0 |] in
  if Runtime.Cache.breaker_opens chaos_cache = 0 then begin
    arm_cache_faults 1.0 1;
    for i = 0 to 15 do
      Runtime.Cache.store chaos_cache
        (Printf.sprintf "chaos:drill:%d" i)
        [ wave ]
    done
  end;
  let breaker_opens = Runtime.Cache.breaker_opens chaos_cache in
  let short_circuits = Runtime.Cache.breaker_short_circuits chaos_cache in
  (* Memory shards keep serving while the breaker is open. *)
  Runtime.Cache.store chaos_cache "chaos:memory" [ wave ];
  let memory_serves =
    Runtime.Cache.find chaos_cache "chaos:memory" <> None
  in
  (* /health must say degraded with reason breaker_open while the
     breaker is open. The traffic phase may have left the breaker
     anywhere in its cycle, so force it open deterministically. *)
  (if
     Runtime.Cache.breaker_state chaos_cache
     <> Some Runtime.Cache.Breaker.Open
   then begin
     arm_cache_faults 1.0 3;
     let i = ref 0 in
     while
       Runtime.Cache.breaker_state chaos_cache
       <> Some Runtime.Cache.Breaker.Open
       && !i < 32
     do
       Runtime.Cache.store chaos_cache
         (Printf.sprintf "chaos:health:%d" !i)
         [ wave ];
       incr i
     done
   end);
  let health_degraded_while_open =
    daemon_health_status d = "degraded" && daemon_health_reason d "breaker_open"
  in
  (* Recovery: faults off, past the cooldown, the half-open probe must
     re-close the breaker and disk writes must resume. *)
  Faultplan.disarm Runtime.Cache.faults;
  Faultplan.disarm Server.Netfault.injector;
  Thread.delay (cooldown_s +. 0.15);
  Runtime.Cache.store chaos_cache "chaos:probe" [ wave ];
  let breaker_recloses = Runtime.Cache.breaker_recloses chaos_cache in
  let breaker_reclosed =
    breaker_recloses >= 1
    && Runtime.Cache.breaker_state chaos_cache
       = Some Runtime.Cache.Breaker.Closed
  in
  (* Breaker closed again, queue drained, not draining: back to ok. *)
  let health_ok_after_reclose = daemon_health_status d = "ok" in
  let disk_resumed =
    let fresh =
      Runtime.Cache.create ~disk_dir:cache_dir ()
    in
    Runtime.Cache.find fresh "chaos:probe" <> None
  in
  (* Recovery traffic: with faults disarmed every request must be
     served byte-identically on the first try. *)
  let n_recovery = Int.min 64 (Int.max 1 n_wb) in
  let recovered = Array.make n_recovery false in
  let rec_worker k () =
    let idx = k mod n_distinct in
    match
      Server.Client.call_raw_with_retry
        ~policy:
          { Server.Client.attempts = 3; base_delay_s = 0.01;
            max_delay_s = 0.1; seed = 1000 + k }
        ~retry_recoverable:true (Server.Client.Unix_path sock)
        requests.(idx)
    with
    | Ok payload -> recovered.(k) <- payload = expected.(idx)
    | Error _ -> ()
  in
  let rec_threads =
    Array.init n_recovery (fun k -> Thread.create (rec_worker k) ())
  in
  Array.iter Thread.join rec_threads;
  let recovery_ok =
    Array.for_all Fun.id recovered
  in
  (* No fd leaks: the live-connection gauge must drain to zero now
     that every client is gone. *)
  let rec drain deadline =
    if Server.Daemon.conn_active d = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      drain deadline
    end
  in
  let drained = drain (Unix.gettimeofday () +. 3.0) in
  let conn_shed = counter "server.conn_shed" in
  let conn_opened = counter "server.conn_opened" in
  let conn_closed = counter "server.conn_closed" in
  let idle_timeouts = counter "server.conn_idle_timeouts" in
  let read_timeouts = counter "server.conn_read_timeouts" in
  let conn_errors = counter "server.conn_errors" in
  let queue_shed = counter "server.shed" in
  Server.Daemon.stop d;
  (* The fuzz sweep: totality of Frame -> Json -> Protocol.parse over
     a large seeded hostile corpus. *)
  let fuzz_count = Int.max 1 !chaos_fuzz in
  let fz = Server.Fuzz.run ~seed:11 ~count:fuzz_count () in
  let fuzz_escapes = List.length fz.Server.Fuzz.escaped in
  let wb_total = n_wb * n_reqs in
  let sum a = Array.fold_left ( + ) 0 a in
  let served_n = sum served
  and typed_n = sum retried_typed
  and corrupt_n = sum retried_corrupt
  and unserved_n = sum unserved in
  let availability =
    if wb_total = 0 then 1.0
    else float_of_int served_n /. float_of_int wb_total
  in
  let lats =
    Array.concat (Array.to_list latencies)
    |> Array.to_seq
    |> Seq.filter (fun x -> not (Float.is_nan x))
    |> Array.of_seq
  in
  Array.sort compare lats;
  let p50 = percentile lats 0.50
  and p95 = percentile lats 0.95
  and p99 = percentile lats 0.99 in
  let net_injected =
    Faultplan.injected Server.Netfault.injector - net_injected_before
  in
  let cache_injected =
    Faultplan.injected Runtime.Cache.faults - cache_injected_before
  in
  let passed =
    unserved_n = 0 && conn_shed >= 1 && breaker_opens >= 1
    && breaker_reclosed && memory_serves && disk_resumed && drained
    && recovery_ok && fuzz_escapes = 0 && health_degraded_while_open
    && health_ok_after_reclose
  in
  Printf.printf
    "well-behaved: %d/%d byte-identical in %.2f s (availability %.4f)\n\
     retries: %d typed, %d corrupted-in-transit; unserved: %d\n\
     latency-to-success p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n\
     conns: opened %d closed %d shed %d; idle timeouts %d, mid-frame %d, \
     errors %d; queue shed %d; drained to zero: %b\n\
     injected faults: %d net, %d cache-disk\n\
     breaker: opens %d, recloses %d, short-circuits %d, reclosed %b; \
     memory served while open: %b; disk resumed: %b\n\
     health: degraded/breaker_open while open %b, ok after re-close %b\n\
     recovery wave: %s\n\
     fuzz: %d inputs (%d parsed, %d bad_request, %d version_mismatch, \
     %d frame trips), %d escaped\n\
     chaos invariants: %s\n%!"
    served_n wb_total duration_s availability typed_n corrupt_n unserved_n
    p50 p95 p99 conn_opened conn_closed conn_shed idle_timeouts
    read_timeouts conn_errors queue_shed drained net_injected cache_injected
    breaker_opens breaker_recloses short_circuits breaker_reclosed
    memory_serves disk_resumed health_degraded_while_open
    health_ok_after_reclose
    (if recovery_ok then "all byte-identical" else "FAILED")
    fz.Server.Fuzz.inputs fz.Server.Fuzz.parsed fz.Server.Fuzz.bad_requests
    fz.Server.Fuzz.version_mismatches fz.Server.Fuzz.frame_trips
    fuzz_escapes
    (if passed then "PASS" else "FAIL");
  if not passed then exit_code := 1;
  add_json "chaos"
    Server.Json.(Obj
       [
         ("clients", jint n_total);
         ("misbehaving", jint n_bad);
         ("requests_per_client", jint n_reqs);
         ("max_conns", jint max_conns);
         ("duration_s", Num duration_s);
         ("wb_total", jint wb_total);
         ("wb_byte_identical", jint served_n);
         ("wb_retried_typed", jint typed_n);
         ("wb_retried_corrupt", jint corrupt_n);
         ("wb_unserved", jint unserved_n);
         ("availability", Num availability);
         ("p50_ms", Num p50);
         ("p95_ms", Num p95);
         ("p99_ms", Num p99);
         ("conn_opened", jint conn_opened);
         ("conn_closed", jint conn_closed);
         ("conn_shed", jint conn_shed);
         ("conn_idle_timeouts", jint idle_timeouts);
         ("conn_read_timeouts", jint read_timeouts);
         ("conn_errors", jint conn_errors);
         ("queue_shed", jint queue_shed);
         ("conns_drained", Bool drained);
         ("net_faults_injected", jint net_injected);
         ("cache_faults_injected", jint cache_injected);
         ("breaker_opens", jint breaker_opens);
         ("breaker_recloses", jint breaker_recloses);
         ("breaker_short_circuits", jint short_circuits);
         ("breaker_reclosed", Bool breaker_reclosed);
         ("memory_served_while_open", Bool memory_serves);
         ("disk_resumed", Bool disk_resumed);
         ( "health_degraded_while_open",
           Bool health_degraded_while_open );
         ( "health_ok_after_reclose",
           Bool health_ok_after_reclose );
         ("recovery_ok", Bool recovery_ok);
         ("fuzz_inputs", jint fz.Server.Fuzz.inputs);
         ("fuzz_parsed", jint fz.Server.Fuzz.parsed);
         ("fuzz_bad_requests", jint fz.Server.Fuzz.bad_requests);
         ( "fuzz_version_mismatches",
           jint fz.Server.Fuzz.version_mismatches );
         ("fuzz_frame_trips", jint fz.Server.Fuzz.frame_trips);
         ("fuzz_escapes", jint fuzz_escapes);
         ("passed", Bool passed);
       ])

(* ------------------------------------------------------------------ *)
(* crash — crash-safety drill against a real supervised daemon.

   Explicit-only section: fork+exec `sta_serve supervise` with a
   write-ahead journal, drive a client herd through retrying calls,
   and SIGKILL the serving child (pid read from --pid-file) on a
   seeded schedule mid-load. Published invariants, each wired to the
   exit code:
   - zero acknowledged-and-lost: every response a client received is
     returned byte-identically when the same request (same payload
     bytes, same journal digest) is re-sent after the crashes — the
     journal either replayed it or the dedup table still holds it;
   - every acknowledged success is byte-identical to a direct
     Protocol.execute rendering;
   - recovery is bounded: after each SIGKILL the service answers a
     ping again within --recovery-budget;
   - the supervisor restarted exactly the killed children
     (server.restarts == kills) and drains cleanly on SIGTERM;
   - after the clean drain no journal entry is left pending (the
     retire-before-drain-ack protocol held).                          *)

let crash_clients = ref 12
let crash_reqs = ref 8
let crash_kills = ref 2
let crash_seed = ref 42
let crash_recovery_budget = ref 30.0

(* Seeded roll in [0,1) — same digest trick as the client's retry
   jitter, so the kill schedule is reproducible from --kill-seed. *)
let crash_roll seed k =
  let d = Digest.string (Printf.sprintf "bench.crash:%d:%d" seed k) in
  float_of_int (Char.code d.[0] lor (Char.code d.[1] lsl 8)) /. 65536.0

let crash_stage () =
  header "crash-safety drill (SIGKILL under load)";
  let requests = serve_requests () in
  let n_distinct = Array.length requests in
  let n_clients = Int.max 1 !crash_clients in
  let n_reqs = Int.max 1 !crash_reqs in
  let n_kills = Int.max 0 !crash_kills in
  let budget = Float.max 1.0 !crash_recovery_budget in
  let pid = Unix.getpid () in
  let tmp = Filename.get_temp_dir_name () in
  let sock = Filename.concat tmp (Printf.sprintf "sta_crash_%d.sock" pid) in
  let journal_dir =
    Filename.concat tmp (Printf.sprintf "sta_crash_journal_%d" pid)
  in
  let pid_file = Filename.concat tmp (Printf.sprintf "sta_crash_%d.pid" pid) in
  let addr = Server.Client.Unix_path sock in
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "sta_serve.exe"))
  in
  let read_pid_file () =
    match open_in pid_file with
    | exception Sys_error _ -> None
    | ic ->
        let p =
          match input_line ic with
          | l -> int_of_string_opt (String.trim l)
          | exception End_of_file -> None
        in
        close_in_noerr ic;
        p
  in
  (* Block until a ping round-trips; returns the instant it did. *)
  let wait_ready () =
    let deadline = Unix.gettimeofday () +. budget in
    let rec go () =
      if Unix.gettimeofday () > deadline then None
      else
        match Server.Client.connect ~retries:0 addr with
        | exception _ ->
            Thread.delay 0.05;
            go ()
        | c -> (
            let r = Server.Client.ping c in
            Server.Client.close c;
            match r with
            | Ok _ -> Some (Unix.gettimeofday ())
            | Error _ ->
                Thread.delay 0.05;
                go ())
    in
    go ()
  in
  if not (Sys.file_exists exe) then begin
    Printf.printf "crash: sta_serve binary not found at %s — FAIL\n%!" exe;
    exit_code := 1;
    add_json "crash"
      Server.Json.(Obj
         [ ("passed", Bool false); ("error", Str "sta_serve not found") ])
  end
  else begin
    let argv =
      [|
        exe; "supervise"; "--socket"; sock; "--journal-dir"; journal_dir;
        "--pid-file"; pid_file; "--scrub"; "1"; "--watchdog"; "30";
        "--base-backoff"; "0.05"; "--max-backoff"; "0.5"; "--healthy-after";
        "3600"; "--crash-budget"; string_of_int (n_kills + 3);
      |]
    in
    (* posix_spawn-based, so the drill composes with bench sections
       that already created pool domains (OCaml 5 forbids fork then). *)
    let sup_pid =
      Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr
    in
    let t_spawn = Unix.gettimeofday () in
    let ready0 = wait_ready () in
    let startup_s =
      match ready0 with Some t -> t -. t_spawn | None -> -1.0
    in
    (* Offline expected bytes on the engine the daemon reports. *)
    let compare_engine =
      let name =
        match Server.Client.connect ~retries:10 addr with
        | exception _ -> "fast"
        | c -> (
            let r = Server.Client.ping c in
            Server.Client.close c;
            match r with
            | Ok doc -> (
                match
                  Option.bind
                    (Server.Json.member "ok" doc)
                    (Server.Json.member "engine")
                with
                | Some (Server.Json.Str n) -> n
                | _ -> "fast")
            | Error _ -> "fast")
      in
      let e =
        match Runtime.Engine.of_name name with
        | e -> e
        | exception Invalid_argument _ -> Runtime.Engine.fast
      in
      Runtime.Engine.with_cache e (Runtime.Cache.create ())
    in
    let expected =
      Array.map
        (fun (req : Server.Protocol.request) ->
          Server.Json.to_string
            (Server.Protocol.response ~id:req.Server.Protocol.id
               (Server.Protocol.execute ~engine:compare_engine
                  req.Server.Protocol.query)))
        requests
    in
    Printf.printf
      "supervisor pid %d, serving on %s (up in %.2f s)\n\
       driving %d clients x %d requests; %d seeded SIGKILLs (seed %d), \
       recovery budget %.0f s\n%!"
      sup_pid sock startup_s n_clients n_reqs n_kills !crash_seed budget;
    (* The herd: every logical request retried until acknowledged —
       crashes show up as transport errors and connection refusals
       that the retry loop absorbs. *)
    let acked = Array.make n_clients [||] in
    let unserved = Array.make n_clients 0 in
    let acked_count = Atomic.make 0 in
    let finished = Atomic.make 0 in
    let retry_policy k =
      { Server.Client.attempts = 60; base_delay_s = 0.05; max_delay_s = 0.5;
        seed = !crash_seed + k }
    in
    let worker k () =
      let res = Array.make n_reqs (-1, "") in
      for r = 0 to n_reqs - 1 do
        let idx = ((k * n_reqs) + r) mod n_distinct in
        match
          Server.Client.call_raw_with_retry ~policy:(retry_policy k)
            ~retry_recoverable:true ~read_timeout_s:15.0 ~write_timeout_s:15.0
            addr requests.(idx)
        with
        | Ok payload ->
            res.(r) <- (idx, payload);
            Atomic.incr acked_count
        | Error _ -> unserved.(k) <- unserved.(k) + 1
      done;
      acked.(k) <- res;
      Atomic.incr finished
    in
    let t_start = Unix.gettimeofday () in
    let threads =
      Array.init n_clients (fun k -> Thread.create (worker k) ())
    in
    (* The kill controller (this thread): at seeded fractions of the
       total request count, SIGKILL whatever pid the supervisor last
       wrote, then measure time-to-ping. *)
    let total = n_clients * n_reqs in
    let kills_done = ref 0 in
    let recovery_times = ref [] in
    let last_killed = ref 0 in
    for i = 0 to n_kills - 1 do
      let frac =
        float_of_int (i + 1) /. (float_of_int n_kills +. 1.0)
      in
      let jitter = 0.9 +. (0.2 *. crash_roll !crash_seed i) in
      let threshold =
        Int.max 1
          (Int.min (total - 1)
             (int_of_float (frac *. jitter *. float_of_int total)))
      in
      while
        Atomic.get acked_count < threshold && Atomic.get finished < n_clients
      do
        Thread.delay 0.01
      done;
      if Atomic.get finished < n_clients then begin
        (* The pid file may still hold the previous (dead) child for a
           moment after a kill; wait for a fresh pid. *)
        let deadline = Unix.gettimeofday () +. budget in
        let rec serving_pid () =
          match read_pid_file () with
          | Some p when p > 0 && p <> !last_killed -> Some p
          | _ ->
              if Unix.gettimeofday () > deadline then None
              else begin
                Thread.delay 0.02;
                serving_pid ()
              end
        in
        match serving_pid () with
        | None -> ()
        | Some cpid ->
            let t_kill = Unix.gettimeofday () in
            (try Unix.kill cpid Sys.sigkill with Unix.Unix_error _ -> ());
            last_killed := cpid;
            incr kills_done;
            let rec_s =
              match wait_ready () with
              | Some t -> t -. t_kill
              | None -> -1.0
            in
            recovery_times := rec_s :: !recovery_times;
            Printf.printf
              "  SIGKILL #%d -> pid %d at %d/%d acked; serving again in \
               %.2f s\n\
               %!"
              (i + 1) cpid
              (Atomic.get acked_count)
              total rec_s
      end
    done;
    Array.iter Thread.join threads;
    let duration_s = Unix.gettimeofday () -. t_start in
    let recovery_times = List.rev !recovery_times in
    let unserved_n = Array.fold_left ( + ) 0 unserved in
    (* Acked successes must match the offline rendering. *)
    let acked_total = ref 0 and acked_identical = ref 0 in
    Array.iter
      (Array.iter (fun (idx, payload) ->
           if idx >= 0 then begin
             incr acked_total;
             if payload = expected.(idx) then incr acked_identical
           end))
      acked;
    (* Zero acknowledged-and-lost: re-send every acknowledged request
       (byte-identical payload, same journal digest) against the
       post-crash daemon; the answer must be the bytes the client
       already holds. *)
    let resend_identical = ref 0 and resend_lost = ref 0 in
    Array.iter
      (Array.iter (fun (idx, payload) ->
           if idx >= 0 then
             match
               Server.Client.call_raw_with_retry ~policy:(retry_policy 7919)
                 ~retry_recoverable:true ~read_timeout_s:15.0
                 ~write_timeout_s:15.0 addr requests.(idx)
             with
             | Ok p2 when p2 = payload -> incr resend_identical
             | Ok _ | Error _ -> incr resend_lost))
      acked;
    (* Final incarnation's counters. *)
    let stats_counters =
      match Server.Client.connect ~retries:20 addr with
      | exception _ -> []
      | c -> (
          let r =
            Server.Client.call c
              { Server.Protocol.id = 0; query = Server.Protocol.Stats;
                deadline_ms = None }
          in
          Server.Client.close c;
          match r with
          | Ok doc -> (
              match
                Option.bind
                  (Server.Json.member "ok" doc)
                  (Server.Json.member "counters")
              with
              | Some (Server.Json.Obj kvs) ->
                  List.filter_map
                    (fun (k, v) ->
                      match v with
                      | Server.Json.Num x -> Some (k, int_of_float x)
                      | _ -> None)
                    kvs
              | _ -> [])
          | Error _ -> [])
    in
    let counter name =
      match List.assoc_opt name stats_counters with Some v -> v | None -> 0
    in
    let restarts_metric = counter "server.restarts" in
    let replayed = counter "server.replayed" in
    let deduped = counter "server.journal_deduped" in
    let journal_pending_live = counter "server.journal_pending" in
    (* Clean drain: SIGTERM the supervisor, expect exit 0. *)
    let clean_exit =
      (try Unix.kill sup_pid Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = Unix.gettimeofday () +. budget in
      let rec waitloop () =
        match Unix.waitpid [ Unix.WNOHANG ] sup_pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then false
            else begin
              Thread.delay 0.05;
              waitloop ()
            end
        | _, Unix.WEXITED 0 -> true
        | _, _ -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitloop ()
        | exception Unix.Unix_error _ -> false
      in
      waitloop ()
    in
    (* After the clean drain every admitted entry must be retired: the
       drain waits for in-flight responses to flush and retire before
       the journal closes. *)
    let journal_pending_after =
      match Server.Journal.open_ journal_dir with
      | j ->
          let n = List.length (Server.Journal.pending j) in
          Server.Journal.close j;
          n
      | exception _ -> -1
    in
    let recoveries_ok =
      List.length recovery_times = n_kills
      && List.for_all (fun t -> t >= 0.0 && t <= budget) recovery_times
    in
    let acked_lost = !resend_lost in
    let passed =
      ready0 <> None && unserved_n = 0
      && !acked_identical = !acked_total
      && acked_lost = 0 && !kills_done = n_kills && recoveries_ok
      && restarts_metric = n_kills && clean_exit && journal_pending_after = 0
    in
    Printf.printf
      "acked %d/%d (unserved %d), byte-identical vs offline: %d/%d\n\
       post-crash re-send: %d identical, %d lost-or-different\n\
       kills %d/%d, recoveries %s (budget %.0f s)\n\
       final incarnation: restarts %d, replayed %d, deduped %d, journal \
       pending %d\n\
       clean supervisor exit: %b; journal pending after drain: %d\n\
       crash invariants: %s\n%!"
      !acked_total total unserved_n !acked_identical !acked_total
      !resend_identical acked_lost !kills_done n_kills
      (String.concat ", "
         (List.map (Printf.sprintf "%.2fs") recovery_times))
      budget restarts_metric replayed deduped journal_pending_live clean_exit
      journal_pending_after
      (if passed then "PASS" else "FAIL");
    if not passed then exit_code := 1;
    add_json "crash"
      Server.Json.(Obj
         [
           ("clients", jint n_clients);
           ("requests_per_client", jint n_reqs);
           ("distinct_cases", jint n_distinct);
           ("duration_s", Num duration_s);
           ("startup_s", Num startup_s);
           ("kills", jint !kills_done);
           ("kills_requested", jint n_kills);
           ("kill_seed", jint !crash_seed);
           ("acked", jint !acked_total);
           ("unserved", jint unserved_n);
           ("acked_byte_identical", jint !acked_identical);
           ("resend_identical", jint !resend_identical);
           ("acked_lost", jint acked_lost);
           ("recovery_s", Arr (List.map (fun x -> Num x) recovery_times));
           ("recovery_budget_s", Num budget);
           ("server_restarts", jint restarts_metric);
           ("server_replayed", jint replayed);
           ("journal_deduped", jint deduped);
           ("journal_pending_live", jint journal_pending_live);
           ( "journal_pending_after_drain",
             jint journal_pending_after );
           ("clean_exit", Bool clean_exit);
           ("passed", Bool passed);
         ]);
    (* Best-effort scratch cleanup. *)
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ sock; pid_file ];
    (match Sys.readdir journal_dir with
    | names ->
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat journal_dir n)
            with Sys_error _ -> ())
          names;
        (try Unix.rmdir journal_dir with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json)                                    *)

let json_row (r : Noise.Eval.row) =
  Server.Json.(
    Obj
      [
        ("name", Str r.Noise.Eval.name);
        ("max_abs_ps", Num r.Noise.Eval.max_abs_ps);
        ("avg_abs_ps", Num r.Noise.Eval.avg_abs_ps);
        ("n_cases", jint r.Noise.Eval.n_cases);
        ("n_failed", jint r.Noise.Eval.n_failed);
      ])

(* Resilience counters since program start, for the always-present
   `resilience` JSON section and the end-of-run summary line. *)
let resil_before = ref (Runtime.Resilience.Stats.snapshot ())
let spice_before = ref (Spice.Transient.Stats.snapshot ())
let guard_before = ref (Runtime.Guard.Stats.snapshot ())

(* Aggregate the per-configuration ladder outcomes for the
   `degradation` JSON section: per-rung counts, exhaustion, and the
   rung-0 resolution rate the CI smoke gate asserts on. *)
let degradation_json () =
  let l = Lazy.force ladder in
  let rung_counts = Array.make (Eqwave.Ladder.length l) 0 in
  let exhausted = ref 0 and unmapped = ref 0 in
  let score_sum = ref 0.0 and mapped = ref 0 in
  List.iter
    (fun (_, _, _, (d : Noise.Eval.degradation_summary)) ->
      Array.iteri
        (fun i n ->
          if i < Array.length rung_counts then
            rung_counts.(i) <- rung_counts.(i) + n)
        d.Noise.Eval.rung_counts;
      exhausted := !exhausted + d.Noise.Eval.n_exhausted;
      unmapped := !unmapped + d.Noise.Eval.n_unmapped;
      let m = Array.fold_left ( + ) 0 d.Noise.Eval.rung_counts in
      mapped := !mapped + m;
      score_sum := !score_sum +. (d.Noise.Eval.avg_score_v *. float_of_int m))
    !table1_results;
  let total = !mapped + !exhausted + !unmapped in
  let sd = Spice.Transient.Stats.(diff (snapshot ()) !spice_before) in
  Server.Json.(Obj
    [
      ("ladder", Arr (List.map (fun n -> Str n) (Eqwave.Ladder.names l)));
      ("rung_counts", Arr (Array.to_list (Array.map jint rung_counts)));
      ("exhausted", jint !exhausted);
      ("unmapped", jint !unmapped);
      ("deadline_hits", jint sd.Spice.Transient.Stats.deadline_hits);
      ( "avg_score_v",
        Num (if !mapped = 0 then 0.0 else !score_sum /. float_of_int !mapped)
      );
      ( "resolved_rung0_rate",
        Num
          (if total = 0 then 1.0
           else
             float_of_int (if Array.length rung_counts > 0 then rung_counts.(0) else 0)
             /. float_of_int total) );
    ])

let guard_json () =
  let d = Runtime.Guard.Stats.(diff (snapshot ()) !guard_before) in
  let open Runtime.Guard.Stats in
  let rate =
    if d.checked = 0 then 1.0
    else float_of_int d.agreements /. float_of_int d.checked
  in
  Server.Json.(Obj
    [
      ("enabled", Bool (cli_spec ()).Runtime.Cli.guard);
      ("every", jint (cli_spec ()).Runtime.Cli.guard_every);
      ("tol_ps", Num (cli_spec ()).Runtime.Cli.guard_tol_ps);
      ("checked", jint d.checked);
      ("agreements", jint d.agreements);
      ("disagreements", jint d.disagreements);
      ("errors", jint d.errors);
      ("agreement_rate", Num rate);
      ("max_delta_ps", Num (d.max_delta_s *. 1e12));
    ])

let resilience_json () =
  let d = Runtime.Resilience.Stats.(diff (snapshot ()) !resil_before) in
  let open Runtime.Resilience.Stats in
  let outcomes = d.recoveries + d.failures in
  let rate =
    if outcomes = 0 then 1.0
    else float_of_int d.recoveries /. float_of_int outcomes
  in
  Server.Json.(Obj
    [
      ("policy", Str (cli_spec ()).Runtime.Cli.fallback);
      ("solves", jint d.solves);
      ("attempts", jint d.attempts);
      ("retries", jint d.retries);
      ("recoveries", jint d.recoveries);
      ("failures", jint d.failures);
      ("rejected_waveforms", jint d.rejected_waveforms);
      ( "injected_faults",
        jint (Spice.Transient.Stats.snapshot ()).injected_faults );
      ("recovery_rate", Num rate);
    ])

let write_json path =
  let body =
    Server.Json.(Obj
      ([
        ("schema", Str "noisy-sta-bench/1");
        ("cases", jint !cases);
        ("jobs", jint (cli_spec ()).Runtime.Cli.jobs);
        ("cache", Bool (cli_spec ()).Runtime.Cli.use_cache);
        ("resilience", resilience_json ());
        ("degradation", degradation_json ());
        ("guard", guard_json ());
        ( "table1",
          Arr
            (List.map
               (fun (scenario, elapsed, rows,
                     (d : Noise.Eval.degradation_summary)) ->
                 Obj
                   [
                     ("scenario", Str scenario);
                     ("elapsed_s", Num elapsed);
                     ("rows", Arr (List.map json_row rows));
                     ( "rung_counts",
                       Arr
                         (Array.to_list
                            (Array.map jint d.Noise.Eval.rung_counts))
                     );
                     ("exhausted", jint d.Noise.Eval.n_exhausted);
                     ("unmapped", jint d.Noise.Eval.n_unmapped);
                   ])
               !table1_results) );
        ( "metrics",
          Obj
            [
              ( "counters",
                Obj
                  (List.map
                     (fun (k, v) -> (k, jint v))
                     (Runtime.Metrics.counters metrics)) );
              ( "timers_s",
                Obj
                  (List.map
                     (fun (k, v) -> (k, Num v))
                     (Runtime.Metrics.timers metrics)) );
            ] );
      ]
      @ !json_sections))
  in
  Runtime.Record.write_atomic path (Server.Json.to_string body ^ "\n");
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)


let () =
  let open Cmdliner in
  let sections_arg =
    Arg.(
      value
      & pos_all
          (enum
             (List.map
                (fun n -> (n, n))
                [ "figure1"; "figure2"; "table1"; "runtime"; "ablation";
                  "nonoverlap"; "worstcase"; "sweep"; "corners";
                  "montecarlo"; "awe"; "serve"; "chaos"; "crash" ]))
          []
      & info [] ~docv:"SECTION"
          ~doc:
            "Sections to run (default: all): $(b,figure1) $(b,figure2) \
             $(b,table1) $(b,runtime) $(b,ablation) \
             $(b,nonoverlap) $(b,worstcase) $(b,sweep) $(b,corners) \
             $(b,montecarlo) \
             $(b,awe); $(b,serve) (explicit only) load-tests the \
             sta_serve daemon; $(b,chaos) (explicit only) runs the \
             service-boundary chaos harness: misbehaving clients, \
             injected network and disk-cache faults, breaker \
             open/re-close, and a large protocol fuzz sweep; \
             $(b,crash) (explicit only) runs the crash-safety drill: \
             SIGKILL a supervised, journaled daemon mid-load and \
             assert zero acknowledged-and-lost plus bounded \
             recovery.")
  in
  let cases_arg =
    Arg.(
      value & opt (Runtime.Cli.int_at_least 1) 100
      & info [ "cases" ] ~docv:"N"
          ~doc:
            "Per-configuration case count (the paper's full 200 is used \
             by $(b,sta_main table1 --cases 200), see EXPERIMENTS.md).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write machine-readable results (table rows plus the metrics \
             snapshot) to $(docv) for cross-PR perf tracking.")
  in
  let compare_arg =
    Arg.(
      value & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Regression gate for the sweep section: fail when the \
             pruned solve count grew >25% over $(docv) (a previous \
             $(b,--json) output).")
  in
  let clients_arg =
    Arg.(
      value & opt int 1000
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent synthetic clients for the serve section.")
  in
  let reqs_arg =
    Arg.(
      value & opt int 4
      & info [ "reqs" ] ~docv:"N"
          ~doc:"Requests per client for the serve section.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission queue bound for the in-process serve daemon.")
  in
  let connect_arg =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"PATH|HOST:PORT"
          ~doc:
            "Load-test an externally running daemon instead of an \
             in-process one (serve section).")
  in
  let misbehave_arg =
    Arg.(
      value & opt float 0.25
      & info [ "misbehave" ] ~docv:"FRACTION"
          ~doc:
            "Fraction of chaos-section clients that misbehave \
             (stall mid-frame, disconnect mid-frame, or send garbage).")
  in
  let net_fault_arg =
    let c = Runtime.Cli.fault_conv Server.Netfault.injector in
    Arg.(
      value & opt (some c) None
      & info [ "inject-net-faults" ] ~docv:"SPEC"
          ~doc:
            "Seeded network fault injection for the chaos section: \
             $(b,[KIND:])($(b,nth:N) | $(b,RATE[@SEED])) with KIND one \
             of torn|stall|drop|corrupt (no KIND rotates all four). \
             Example: 0.05@7.")
  in
  let fuzz_count_arg =
    Arg.(
      value & opt int 100_000
      & info [ "fuzz-count" ] ~docv:"N"
          ~doc:"Seeded fuzz inputs for the chaos section's sweep.")
  in
  let kill_count_arg =
    Arg.(
      value & opt int 2
      & info [ "kill-count" ] ~docv:"N"
          ~doc:"SIGKILLs of the serving child during the crash section.")
  in
  let kill_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "kill-seed" ] ~docv:"SEED"
          ~doc:"Seed for the crash section's kill schedule and client \
                retry jitter.")
  in
  let recovery_budget_arg =
    Arg.(
      value & opt float 30.0
      & info [ "recovery-budget" ] ~docv:"SECONDS"
          ~doc:"Crash section: maximum allowed time from SIGKILL to \
                the service answering a ping again.")
  in
  let run sections_v cases_v json_v compare_v clients_v reqs_v queue_depth_v
      connect_v misbehave_v net_fault_v fuzz_count_v kill_count_v kill_seed_v
      recovery_budget_v spec (sweep : Runtime.Cli.sweep) =
    (* Fail on an unwritable --json path now, not after minutes of
       sims; same for a missing --compare baseline or a bad ladder. *)
    let usage_error msg =
      prerr_endline ("bench: " ^ msg);
      exit 2
    in
    (match json_v with
    | None -> ()
    | Some path -> (
        match open_out path with
        | oc -> close_out oc
        | exception Sys_error msg -> usage_error ("--json: " ^ msg)));
    (match compare_v with
    | None -> ()
    | Some path ->
        if not (Sys.file_exists path) then
          usage_error ("--compare: no such baseline file " ^ path));
    (match sweep.Runtime.Cli.ladder with
    | None -> ()
    | Some names -> (
        match Eqwave.Ladder.of_names names with
        | (_ : Eqwave.Ladder.t) -> ()
        | exception Invalid_argument msg -> usage_error ("--ladder: " ^ msg)));
    (* The serve/chaos sections write to sockets that a (possibly
       fault-injected) daemon may drop mid-write; without this the
       whole bench dies of SIGPIPE instead of counting a typed
       transport error. In-process runs are already covered because
       Daemon.start ignores it — this covers --connect runs too. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    cli := Some spec;
    cases := cases_v;
    want_metrics := sweep.Runtime.Cli.metrics;
    json_out := json_v;
    sections := sections_v;
    checkpoint_dir := sweep.Runtime.Cli.checkpoint_dir;
    ladder_names := sweep.Runtime.Cli.ladder;
    compare_file := compare_v;
    serve_clients := Int.max 1 clients_v;
    serve_reqs := Int.max 1 reqs_v;
    serve_queue_depth := Int.max 1 queue_depth_v;
    serve_connect := connect_v;
    chaos_misbehave := misbehave_v;
    chaos_net := net_fault_v;
    chaos_fuzz := fuzz_count_v;
    crash_kills := Int.max 0 kill_count_v;
    crash_seed := kill_seed_v;
    crash_recovery_budget := recovery_budget_v;
    Runtime.Cli.arm_faults spec;
    resil_before := Runtime.Resilience.Stats.snapshot ();
    spice_before := Spice.Transient.Stats.snapshot ();
    guard_before := Runtime.Guard.Stats.snapshot ();
    let stage name f =
      if section_enabled name then
        Runtime.Metrics.time metrics ("stage." ^ name) f
    in
    let before = Spice.Transient.Stats.snapshot () in
    stage "figure1" figure1;
    stage "figure2" figure2;
    stage "table1" table1;
    stage "runtime" runtime;
    stage "ablation" ablation;
    stage "nonoverlap" nonoverlap;
    stage "worstcase" worstcase;
    stage "sweep" sweep_stage;
    stage "corners" corners;
    stage "montecarlo" montecarlo;
    stage "awe" awe;
    (* Explicit-only: a daemon load test is not part of the default
       simulation sweep. *)
    if List.mem "serve" !sections then stage "serve" serve_stage;
    if List.mem "chaos" !sections then stage "chaos" chaos_stage;
    if List.mem "crash" !sections then stage "crash" crash_stage;
    Runtime.Metrics.set metrics "pool.jobs" spec.Runtime.Cli.jobs;
    Runtime.Metrics.capture_spice ~since:before metrics;
    Runtime.Metrics.capture_resilience ~since:!resil_before metrics;
    Runtime.Metrics.capture_guard ~since:!guard_before metrics;
    (if Lazy.is_val cache then
       match Lazy.force cache with
       | Some c -> Runtime.Metrics.capture_cache metrics c
       | None -> ());
    if !want_metrics then
      Format.printf "@.%a@." Runtime.Metrics.pp_report metrics;
    (match !json_out with Some path -> write_json path | None -> ());
    (if Lazy.is_val pool then
       match Lazy.force pool with
       | Some p -> Runtime.Pool.shutdown p
       | None -> ());
    (let d = Runtime.Resilience.Stats.(diff (snapshot ()) !resil_before) in
     let open Runtime.Resilience.Stats in
     if
       Faultplan.is_armed Spice.Transient.Fault.injector
       || d.retries > 0 || d.failures > 0
     then
       Printf.printf "\nresilience: %d injected faults; %s\n"
         (Spice.Transient.Stats.snapshot ()).injected_faults
         (Format.asprintf "%a" pp d));
    Printf.printf "\nDone.\n";
    if !exit_code <> 0 then exit !exit_code
  in
  let term =
    Term.(
      const run $ sections_arg $ cases_arg $ json_arg $ compare_arg
      $ clients_arg $ reqs_arg $ queue_depth_arg $ connect_arg
      $ misbehave_arg $ net_fault_arg $ fuzz_count_arg $ kill_count_arg
      $ kill_seed_arg $ recovery_budget_arg
      $ Runtime.Cli.spec_term ~default_cache_dir:".noisy_sta_cache" ()
      $ Runtime.Cli.sweep_term ())
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench"
             ~doc:"Regenerate every table and figure of the paper")
          term))
