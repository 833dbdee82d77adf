(* gamma — Gamma_eff mapping alone. The set-up simulates three arcs
   (Config I, Config II, Config I with the BUFx16 receiver) at 32
   alignments each: an even grid over the window, shifted by a seeded
   fraction of its step. The timed phase maps (context, P) pairs, P the
   sampling budget in 10..140, through the default ladder and each of
   the six techniques. A block maps every context once, at budgets
   spread evenly over 10..140; block b shifts each context's budget by
   b, so no pair repeats and a memo keyed on the waveform and P cannot
   help, while many waveforms per arc is the shape a per-arc rho memo
   may exploit. One op is one pair through all seven mappings; the
   phase solves no transients. *)

open Workload

let arcs = Noise.Scenario.[ config_i; config_ii; config_i_buffer ]
let budgets = Array.init 131 (fun i -> 10 + i)
let nominal_rate = 1000.0

type context = {
  th : Waveform.Thresholds.t;
  noiseless : Noise.Injection.run;
  noisy : Noise.Injection.run;
}

let contexts cfg =
  let per_arc = if cfg.toy then 2 else 32 in
  List.concat
    (List.mapi
       (fun a (scen : Noise.Scenario.t) ->
         let engine = Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ()) in
         let shift = Random.State.float (Measure.rng cfg.seed (1000 + a)) 1.0 in
         let lo = scen.victim_t0 +. scen.window_offset -. (scen.window /. 2.0) in
         let slice = scen.window /. float_of_int per_arc in
         let taus = Array.init per_arc (fun i -> lo +. (slice *. (float_of_int i +. shift))) in
         let noiseless = Noise.Injection.noiseless ~engine scen in
         ignore (Noise.Injection.prewarm_noisy ~engine scen taus);
         let th = Device.Process.thresholds scen.proc in
         List.map
           (fun tau -> { th; noiseless; noisy = Noise.Injection.noisy ~engine scen ~tau })
           (Array.to_list taus))
       arcs)
  |> Array.of_list

let make_ctx ?samples c =
  Eqwave.Technique.make_ctx ?samples ~th:c.th ~noisy_in:c.noisy.far
    ~noiseless_in:c.noiseless.far ~noiseless_out:c.noiseless.rcv ()

let run cfg ctxs () =
  let traced = !Trace.enabled in
  let n_ctx = Array.length ctxs in
  let n_blocks =
    Int.min (Array.length budgets) (blocks_for cfg ~rate:nominal_rate ~per_block:n_ctx)
  in
  (* Context c's budget in block b: its seeded base slot plus b. *)
  let base = Measure.shuffle (Measure.rng cfg.seed 2000) (Array.init n_ctx Fun.id) in
  let budget c b = budgets.(((base.(c) * Array.length budgets / n_ctx) + b) mod Array.length budgets) in
  let orders =
    Array.init n_blocks (fun b -> Measure.shuffle (Measure.rng cfg.seed (3000 + b)) (Array.init n_ctx Fun.id))
  in
  let digest = Measure.digest () in
  let exhausted = ref 0 and unsupported = ref 0 and rung0 = ref 0 in
  let add_ramp th r =
    Measure.add_ps digest (Waveform.Ramp.arrival r th);
    Measure.add_ps digest (Waveform.Ramp.slew r th)
  in
  let op b i =
    let ci = orders.(b).(i) in
    let c = ctxs.(ci) in
    let ctx = make_ctx ~samples:(budget ci b) c in
    (match Trace.span "eqwave.ladder" (fun () -> Eqwave.Ladder.run Eqwave.Ladder.default ctx) with
    | Ok o ->
        if o.rung = 0 then incr rung0;
        Measure.add_str digest (string_of_int o.rung);
        add_ramp c.th o.ramp
    | Error _ ->
        incr exhausted;
        Measure.add_str digest "exhausted");
    List.iter
      (fun (t : Eqwave.Technique.t) ->
        match Trace.span ("eqwave." ^ t.name) (fun () -> t.run ctx) with
        | r -> add_ramp c.th r
        | exception (Eqwave.Technique.Unsupported _ | Stdlib.Failure _) ->
            incr unsupported;
            Measure.add_str digest "x")
      Eqwave.Registry.all
  in
  let p = start_phase () in
  let latencies, blocks = run_blocks ~name:"gamma" ~n_blocks ~per_block:n_ctx op in
  let t_end = Measure.now () in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let ops = Array.length latencies in
  let sims = (spice_since p).sims in
  let layer, notes =
    if not traced then ([], [])
    else
      let phase_layers = span_layers ~t_lo:p.t_start ~t_hi:t_end @ counter_layers p ~ops in
      (* rho extraction timed on its own, after the pass. *)
      Array.iter
        (fun c ->
          let ctx = make_ctx c in
          for _ = 1 to 3 do
            ignore (Trace.span "eqwave.rho" (fun () -> Eqwave.Sensitivity.compute ctx))
          done)
        ctxs;
      let spans = Trace.spans () in
      let d name = Trace.durations name spans in
      let p50 name = Measure.median (d name) in
      ( phase_layers
        @ [
            ("eqwave.rho_share_sgdp", p50 "eqwave.rho" /. p50 "eqwave.SGDP");
            ("eqwave.sgdp_over_wls5", p50 "eqwave.SGDP" /. p50 "eqwave.WLS5");
            ( "eqwave.unsupported_frac",
              float_of_int !unsupported
              /. float_of_int (Int.max 1 (ops * List.length Eqwave.Registry.all)) );
            ("eqwave.rung0_frac", float_of_int !rung0 /. float_of_int (Int.max 1 ops));
          ],
        List.map
          (fun (t : Eqwave.Technique.t) ->
            p50_note (Printf.sprintf "eqwave.%s_us_p50" t.name) "us" 1e6 (d ("eqwave." ^ t.name)))
          Eqwave.Registry.all
        @ [
            p50_note "eqwave.ladder_us_p50" "us" 1e6 (d "eqwave.ladder");
            p50_note "eqwave.rho_us_p50" "us" 1e6 (d "eqwave.rho");
          ] )
  in
  {
    latencies;
    blocks;
    elapsed = t_end -. p.t_start;
    failed = !exhausted;
    checks = [ ("gamma.no_transient_solves", sims = 0) ];
    digest = Measure.hex digest;
    notes =
      Printf.sprintf "contexts %d, blocks %d, distinct (context, P) pairs mapped %d, transient solves %d"
        n_ctx n_blocks ops sims
      :: notes;
    layer;
    peak_rss_mb;
  }

(* Set-up: simulate the contexts. *)
let prepare cfg =
  let ctxs = contexts cfg in
  { run = run cfg ctxs; discard = ignore }

let workload = { name = "gamma"; unit_ = "mapping"; prepare }
