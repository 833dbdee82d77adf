(* table1 — the paper's Table-1 sweep through [Noise.Eval.run_table]:
   Config I and Config II, 200 alignments each, the six techniques plus
   the default ladder, reference engine, batch 16 (so the lockstep
   prewarm runs). One op is one case; its latency is the gap between
   [run_table]'s progress callbacks. The grid is swept as eight
   interleaved 25-alignment sub-grids (every eighth alignment): a block
   runs one sub-grid of each configuration, each a [run_table] call
   with a fresh memory cache, so every block holds the same mix of
   alignments. Seed 0 sweeps the paper grid; other seeds shift it by a
   seeded fraction of one alignment step, and longer runs sweep more
   rounds of the whole grid, each shifted anew. *)

open Workload

let techs = Eqwave.Registry.all
let nominal_rate = 30.0
let stride cfg = if cfg.toy then 2 else 8
let step (s : Noise.Scenario.t) = s.window /. float_of_int (s.cases - 1)

(* The full grids of one round. *)
let grid cfg round =
  let frac =
    if cfg.seed = 0 && round = 0 then 0.0
    else Random.State.float (Measure.rng cfg.seed round) 1.0
  in
  List.map
    (fun (s : Noise.Scenario.t) ->
      let s = if cfg.toy then Noise.Scenario.with_cases s 4 else s in
      { s with window_offset = s.window_offset +. (frac *. step s) })
    Noise.Scenario.[ config_i; config_ii ]

let n_rounds cfg =
  let cases = List.fold_left (fun n (s : Noise.Scenario.t) -> n + s.cases) 0 (grid cfg 0) in
  blocks_for cfg ~rate:nominal_rate ~per_block:cases

(* Alignments j, j + stride, j + 2 stride, ... of [s]'s grid, as a
   scenario of its own. *)
let sub_grid (s : Noise.Scenario.t) ~stride j =
  let cases = (s.cases - j + stride - 1) / stride in
  let lo = s.victim_t0 +. s.window_offset -. (s.window /. 2.0) +. (float_of_int j *. step s) in
  let window = float_of_int ((cases - 1) * stride) *. step s in
  { s with cases; window; window_offset = lo +. (window /. 2.0) -. s.victim_t0 }

let fresh_engine () =
  Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ())

(* What both paths answer per case: the reference delay, each
   technique's delay estimate (None when it failed), whether ladder
   rung 0 accepted, and how many techniques rejected the waveform. *)
type case = { delay_ref : float; ests : float option list; rung0 : bool; unsupported : int }

let failed_case =
  { delay_ref = nan; ests = List.map (fun _ -> None) techs; rung0 = false; unsupported = 0 }

let case_of_eval (c : Noise.Eval.case_eval) =
  {
    delay_ref = c.delay_ref;
    ests = List.map (fun (m : Noise.Eval.case_metrics) -> m.delay_est) c.metrics;
    rung0 = (match c.mapping with Ok d -> d.rung = 0 | Error _ -> false);
    unsupported =
      List.length
        (List.filter
           (fun (m : Noise.Eval.case_metrics) ->
             match m.failure with Some (Runtime.Failure.Unsupported _) -> true | _ -> false)
           c.metrics);
  }

let same_case a b =
  bits_equal a.delay_ref b.delay_ref && List.equal (Option.equal bits_equal) a.ests b.ests

(* The traced path: [run_table]'s call sequence (noiseless, lockstep
   prewarm in batch-sized groups, then [evaluate_case]'s calls case by
   case) with a span around every call into a layer. *)
let mid th w =
  let level = Waveform.Thresholds.v_mid th in
  match Waveform.Wave.last_crossing w level with
  | Some t -> t
  | None -> Runtime.Failure.fail (Missing_crossing { what = "replayed case"; level })

let replay_case ~engine scen ~noiseless ~tau =
  let open Noise in
  let th = Device.Process.thresholds scen.Scenario.proc in
  let noisy = Trace.span ~spice:true "noise.noisy" (fun () -> Injection.noisy ~engine scen ~tau) in
  let ctx = Injection.ctx_of_runs scen ~noiseless ~noisy in
  let receiver input tstop =
    Trace.span ~spice:true "noise.receiver_response" (fun () ->
        Injection.receiver_response ~engine scen ~input ~tstop)
  in
  let tstop = scen.Scenario.tstop in
  let t_in = mid th noisy.Injection.far in
  let delay_ref = mid th (receiver (Spice.Source.of_wave noisy.Injection.far) tstop) -. t_in in
  let unsupported = ref 0 in
  let est (tech : Eqwave.Technique.t) =
    match Trace.span ("eqwave." ^ tech.name) (fun () -> tech.run ctx) with
    | exception (Eqwave.Technique.Unsupported _ | Stdlib.Failure _) ->
        incr unsupported;
        None
    | ramp -> (
        let tstop = Float.max tstop (Waveform.Ramp.t_settle ramp +. 1.5e-9) in
        match mid th (receiver (Spice.Source.of_ramp ramp) tstop) with
        | exception (Runtime.Failure.Error _ | Spice.Transient.No_convergence _) -> None
        | t_out -> Some (t_out -. Waveform.Ramp.arrival ramp th))
  in
  let ests = List.map est techs in
  let rung0 =
    match Trace.span "eqwave.ladder" (fun () -> Eqwave.Ladder.run Eqwave.Ladder.default ctx) with
    | Ok o -> o.rung = 0
    | Error _ -> false
  in
  { delay_ref; ests; rung0; unsupported = !unsupported }

let replay_sweep ~engine ~first_op ~stamp scen =
  let taus = Noise.Scenario.taus scen in
  let noiseless =
    Trace.span ~spice:true "noise.noiseless" (fun () -> Noise.Injection.noiseless ~engine scen)
  in
  let b = Runtime.Engine.batch engine and n = Array.length taus in
  for g = 0 to ((n + b - 1) / b) - 1 do
    let group = Array.sub taus (g * b) (Int.min b (n - (g * b))) in
    Trace.span ~spice:true "noise.prewarm_noisy" (fun () ->
        ignore (Noise.Injection.prewarm_noisy ~engine scen group))
  done;
  List.mapi
    (fun i tau ->
      let c =
        Trace.span ~op:(first_op + i) "op.table1" (fun () ->
            match replay_case ~engine scen ~noiseless ~tau with
            | c -> c
            | exception e when Noise.Eval.failure_of_exn e <> None -> failed_case)
      in
      stamp ();
      c)
    (Array.to_list taus)

(* Every replayed case must equal [Eval.evaluate_case] — what
   [run_table] runs per case — bit for bit. The sweep's cache is warm,
   so the re-check costs only the fits. *)
let replay_matches_eval (scen, engine, cases) =
  let noiseless = Noise.Injection.noiseless ~engine scen in
  List.for_all2
    (fun tau c ->
      match Noise.Eval.evaluate_case ~engine scen ~noiseless ~tau with
      | e -> same_case (case_of_eval e) c
      | exception e when Noise.Eval.failure_of_exn e <> None -> same_case failed_case c)
    (Array.to_list (Noise.Scenario.taus scen))
    cases

(* Table-1 rows as [Eval.run_table] summarizes them:
   (technique, max |err| ps, avg |err| ps, cases, failed). *)
let rows cases =
  List.mapi
    (fun k (tech : Eqwave.Technique.t) ->
      let errs =
        Array.of_list
          (List.filter_map
             (fun c -> Option.map (fun e -> abs_float (e -. c.delay_ref) *. 1e12) (List.nth c.ests k))
             cases)
      in
      let n = Array.length errs and total = List.length cases in
      if n = 0 then (tech.name, 0.0, 0.0, 0, total)
      else (tech.name, Numerics.Stats.max_abs errs, Numerics.Stats.mean errs, n, total - n))
    techs

let rows_match_expected config cases =
  List.for_all
    (fun (name, mx, avg, n, nf) ->
      List.exists
        (fun (c, t, emx, eavg, en, enf) ->
          c = config && t = name
          && abs_float (mx -. emx) <= 0.01
          && abs_float (avg -. eavg) <= 0.01
          && n = en && nf = enf)
        Expected.table1_seed0)
    (rows cases)

let run cfg () =
  let traced = !Trace.enabled in
  let stamps = ref [] in
  let stamp () = stamps := Measure.now () :: !stamps in
  let sweeps = ref [] and blocks = ref [] in
  let stride = stride cfg in
  let grids = List.init (n_rounds cfg) (grid cfg) in
  let p = start_phase () in
  List.iteri
    (fun round grid ->
      for j = 0 to stride - 1 do
        let t0 = Measure.now () and n0 = List.length !stamps in
        List.iter
          (fun full ->
            let scen = sub_grid full ~stride j in
            let engine = fresh_engine () in
            let cases =
              if traced then replay_sweep ~engine ~first_op:(List.length !stamps) ~stamp scen
              else
                let t = Noise.Eval.run_table ~engine ~progress:(fun _ _ -> stamp ()) scen in
                List.map case_of_eval t.cases
            in
            let c = Option.get (Runtime.Engine.cache engine) in
            let stats = (Runtime.Cache.hits c, Runtime.Cache.misses c, Runtime.Cache.length c) in
            (* Untraced sweeps drop their cache before the next one
               starts, as separate [run_table] calls would. *)
            let engine = if traced then Some engine else None in
            sweeps := (round, full, scen, engine, cases, stats) :: !sweeps)
          grid;
        blocks := (List.length !stamps - n0, Measure.now () -. t0) :: !blocks
      done)
    grids;
  let t_end = Measure.now () in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let ops = List.length !stamps in
  let layers = if traced then span_layers ~t_lo:p.t_start ~t_hi:t_end @ counter_layers p ~ops else [] in
  let sweeps = List.rev !sweeps in
  let stamps = Array.of_list (List.rev !stamps) in
  let latencies = Array.mapi (fun i t -> t -. if i = 0 then p.t_start else stamps.(i - 1)) stamps in
  let all = List.concat_map (fun (_, _, _, _, cs, _) -> cs) sweeps in
  let digest = Measure.digest () in
  List.iter
    (fun c ->
      Measure.add_ps digest c.delay_ref;
      List.iter (function Some d -> Measure.add_ps digest d | None -> Measure.add_str digest "x") c.ests)
    all;
  (* Table-1 rows of round 0, each configuration's sub-grids pooled. *)
  let round0 =
    List.map
      (fun (full : Noise.Scenario.t) ->
        ( full.name,
          List.concat_map
            (fun (r, (f : Noise.Scenario.t), _, _, cs, _) -> if r = 0 && f.name = full.name then cs else [])
            sweeps ))
      (List.hd grids)
  in
  let sgdp = List.length techs - 1 in
  let sgdp_errs =
    Array.of_list
      (List.filter_map
         (fun c -> Option.map (fun e -> abs_float (e -. c.delay_ref) *. 1e12) (List.nth c.ests sgdp))
         all)
  in
  let frac k = float_of_int k /. float_of_int (Int.max 1 ops) in
  let count f = List.length (List.filter f all) in
  let hits, misses, entries =
    List.fold_left
      (fun (h, m, e) (_, _, _, _, _, (h', m', e')) -> (h + h', m + m', e + e'))
      (0, 0, 0) sweeps
  in
  let spans = Trace.spans () in
  let d name = Trace.durations name spans in
  let notes =
    Printf.sprintf "rounds %d of %d sub-grid blocks, cases %d" (List.length grids) stride ops
    :: List.concat_map
         (fun (config, cs) ->
           List.map
             (fun (name, mx, avg, n, nf) ->
               Printf.sprintf "%-16s %-5s max %8.3f ps  avg %8.3f ps  cases %3d  failed %3d" config name
                 mx avg n nf)
             (rows cs))
         round0
    @ [
        Printf.sprintf "err_max_ps %.4f  err_avg_ps %.4f  (SGDP vs replay reference, pooled)"
          (if Array.length sgdp_errs = 0 then nan else Numerics.Stats.max_abs sgdp_errs)
          (Measure.mean sgdp_errs);
      ]
    @
    if not traced then []
    else
      [
        Printf.sprintf "spice.ms_per_sim %.4g" (ms_per_sim spans);
        Printf.sprintf "noise.prewarm_s %.4g" (Array.fold_left ( +. ) 0.0 (d "noise.prewarm_noisy"));
        p50_note "noise.noisy_ms_p50" "ms" 1e3 (d "noise.noisy");
        p50_note "noise.receiver_ms_p50" "ms" 1e3 (d "noise.receiver_response");
      ]
      @ List.map
          (fun (t : Eqwave.Technique.t) ->
            p50_note (Printf.sprintf "eqwave.%s_us_p50" t.name) "us" 1e6 (d ("eqwave." ^ t.name)))
          techs
      @ [ p50_note "eqwave.ladder_us_p50" "us" 1e6 (d "eqwave.ladder") ]
  in
  {
    latencies;
    blocks = List.rev !blocks;
    elapsed = t_end -. p.t_start;
    failed = count (fun c -> Float.is_nan c.delay_ref);
    checks =
      [
        ( "table1.seed0_rows_match_expected",
          cfg.seed <> 0 || cfg.toy || List.for_all (fun (c, cs) -> rows_match_expected c cs) round0 );
        ( "table1.traced_replay_bit_identical",
          (not traced)
          || List.for_all (fun (_, _, s, e, cs, _) -> replay_matches_eval (s, Option.get e, cs)) sweeps );
      ];
    digest = Measure.hex digest;
    notes;
    layer =
      (if not traced then []
       else
         layers
         @ cache_layers ~ops ~hits ~misses
             ~entries:(float_of_int entries /. float_of_int (List.length sweeps))
             ~bytes_written:0
         @ [
             ( "eqwave.sgdp_over_wls5",
               Measure.median (d "eqwave.SGDP") /. Measure.median (d "eqwave.WLS5") );
             ( "eqwave.unsupported_frac",
               float_of_int (List.fold_left (fun a c -> a + c.unsupported) 0 all)
               /. float_of_int (Int.max 1 (ops * List.length techs)) );
             ("eqwave.rung0_frac", frac (count (fun c -> c.rung0)));
           ]);
    peak_rss_mb;
  }

(* Set-up: one off-grid warm-up case per configuration, noiseless run
   included, on a throwaway engine. *)
let prepare cfg =
  List.iter
    (fun (scen : Noise.Scenario.t) ->
      let engine = fresh_engine () in
      let noiseless = Noise.Injection.noiseless ~engine scen in
      let tau = (Noise.Scenario.taus scen).(0) -. step scen in
      ignore (Noise.Eval.evaluate_case ~engine scen ~noiseless ~tau))
    (grid cfg 0);
  { run = run cfg; discard = ignore }

let workload = { name = "table1"; unit_ = "case"; prepare }
