(* worstcase — per-net worst-aggressor search with
   [Noise.Alignment.search] (2 ps coverage slack, 200-point grid,
   reference engine, batch 16, a fresh cache per net). One op is one
   net: its noiseless run plus the search. A block holds the twelve
   configuration x corner x aggressor-polarity combinations once each,
   in seeded order, at couplings of 0.6-1.4x nominal: the range is cut
   into twelve strata, every block uses each stratum once and block b
   rotates the strata by b, with a seeded position inside each
   stratum. The set-up searches the nominal Config I and Config II nets
   (nets 0-1); their exhaustive sweeps, after the timed phase, check
   the pruning. *)

open Workload

let tol_ps = 2.0
let nominal_rate = 5.0
let combos = 12

(* The toy smoke runs a coarser grid and time step. *)
let sized cfg scen =
  if cfg.toy then { (Noise.Scenario.with_cases scen 64) with dt = 5e-12 } else scen

let net cfg b i =
  let open Noise.Scenario in
  let c = (Measure.shuffle (Measure.rng cfg.seed (3000 + b)) (Array.init combos Fun.id)).(i) in
  let stratum = (c + b) mod combos in
  let u = Random.State.float (Measure.rng cfg.seed ((4000 + (b * combos)) + c)) 1.0 in
  let base = if c land 1 = 0 then config_i else config_ii in
  sized cfg
    {
      base with
      name = Printf.sprintf "net %d.%d" b i;
      proc = Device.Process.[| c13_fast; c13; c13_slow |].(c / 2 mod 3);
      aggressor_rising = (if c >= 6 then base.victim_rising else not base.victim_rising);
      cm_total = base.cm_total *. (0.6 +. (0.8 *. (float_of_int stratum +. u) /. float_of_int combos));
    }

let nominal cfg = List.map (sized cfg) Noise.Scenario.[ config_i; config_ii ]

let search ?(tol = tol_ps) scen =
  let engine = Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ()) in
  let noiseless =
    Trace.span ~spice:true "noise.noiseless" (fun () -> Noise.Injection.noiseless ~engine scen)
  in
  let r =
    Trace.span ~spice:true "noise.search" (fun () ->
        Noise.Alignment.search
          ~config:{ Noise.Alignment.default with prune_tol_ps = tol }
          ~engine scen ~noiseless)
  in
  (r, Option.get (Runtime.Engine.cache engine))

let run cfg nominal_results () =
  let traced = !Trace.enabled in
  let per_block = if cfg.toy then 2 else combos in
  let n_blocks = blocks_for cfg ~rate:nominal_rate ~per_block in
  let results = ref [] and failed = ref 0 in
  let hits = ref 0 and misses = ref 0 and entries = ref 0 in
  let op b i =
    match search (net cfg b i) with
    | r, c ->
        hits := !hits + Runtime.Cache.hits c;
        misses := !misses + Runtime.Cache.misses c;
        entries := !entries + Runtime.Cache.length c;
        results := Some r :: !results
    | exception e when Noise.Eval.failure_of_exn e <> None ->
        incr failed;
        results := None :: !results
  in
  let p = start_phase () in
  let latencies, blocks = run_blocks ~name:"worstcase" ~n_blocks ~per_block op in
  let t_end = Measure.now () in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let ops = Array.length latencies in
  let layers = if traced then span_layers ~t_lo:p.t_start ~t_hi:t_end @ counter_layers p ~ops else [] in
  let results = List.rev !results in
  let digest = Measure.digest () in
  List.iter
    (function
      | Some (r : Noise.Alignment.result) ->
          Measure.add_ps digest r.best_delay;
          Measure.add_ps digest r.best_tau
      | None -> Measure.add_str digest "failed")
    (List.map Option.some nominal_results @ results);
  let solved, total =
    List.fold_left
      (fun (s, t) -> function
        | Some (r : Noise.Alignment.result) -> (s + r.stats.solved, t + r.stats.total)
        | None -> (s, t))
      (0, 0) results
  in
  (* Exhaustive sweeps of nets 0-1, outside the timed phase and the
     trace: the pruned worst delay may trail the true one by at most
     the slack. *)
  let traced_before = !Trace.enabled in
  Trace.enabled := false;
  let gap_max =
    List.fold_left2
      (fun m scen (pruned : Noise.Alignment.result) ->
        let ex, _ = search ~tol:0.0 scen in
        Float.max m (abs_float (ex.best_delay -. pruned.best_delay) *. 1e12))
      0.0 (nominal cfg) nominal_results
  in
  Trace.enabled := traced_before;
  let spans = Trace.spans () in
  {
    latencies;
    blocks;
    elapsed = t_end -. p.t_start;
    failed = !failed;
    checks = [ ("worstcase.nets01_gap_within_tol", gap_max <= tol_ps) ];
    digest = Measure.hex digest;
    notes =
      [
        Printf.sprintf "nets %d in %d blocks, alignments solved %d of %d (%.1f%%)" ops n_blocks solved
          total
          (100.0 *. float_of_int solved /. float_of_int (Int.max 1 total));
        Printf.sprintf "err_max_ps %.4f  (exhaustive minus pruned worst delay, nets 0-1, slack %.1f ps)"
          gap_max tol_ps;
      ]
      @
      if traced then
        [
          Printf.sprintf "spice.ms_per_sim %.4g" (ms_per_sim spans);
          p50_note "noise.search_ms_p50" "ms" 1e3 (Trace.durations "noise.search" spans);
        ]
      else [];
    layer =
      (if not traced then []
       else
         layers
         @ cache_layers ~ops ~hits:!hits ~misses:!misses
             ~entries:(float_of_int !entries /. float_of_int (Int.max 1 ops))
             ~bytes_written:0
         @ [
             ("noise.alignments_solved_per_op", float_of_int solved /. float_of_int (Int.max 1 ops));
             ("noise.solved_frac", float_of_int solved /. float_of_int (Int.max 1 total));
           ]);
    peak_rss_mb;
  }

(* Set-up: search the two nominal nets. *)
let prepare cfg =
  let nominal_results = List.map (fun scen -> fst (search scen)) (nominal cfg) in
  { run = run cfg nominal_results; discard = ignore }

let workload = { name = "worstcase"; unit_ = "net"; prepare }
