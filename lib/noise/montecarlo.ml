type sample = {
  tau : float;
  aggressor_rising : bool;
  pruned : bool;
  case : Eval.case_eval;
}

type summary = {
  technique : string;
  p50_ps : float;
  p95_ps : float;
  max_ps : float;
  n : int;
  failed : int;
}

let run ?(seed = 42) ?(samples = 50) ?techniques ?ladder ?checkpoint_dir
    ?engine ?(prune_tol_ps = 0.0) scenario =
  if samples < 1 then invalid_arg "Montecarlo.run: samples < 1";
  let engine = Runtime.Engine.resolve engine in
  let techs =
    match techniques with Some t -> t | None -> Eqwave.Registry.all
  in
  let rng = Random.State.make [| seed |] in
  let window = scenario.Scenario.window in
  let lo =
    scenario.Scenario.victim_t0 +. scenario.Scenario.window_offset
    -. (window /. 2.0)
  in
  (* Draw everything up front so the stream (and thus the result) does
     not depend on evaluation order under a pool. *)
  let draws =
    Array.init samples (fun _ ->
        let tau = lo +. (Random.State.float rng window) in
        let rising = Random.State.bool rng in
        (tau, rising))
  in
  let pruning =
    prune_tol_ps > 0.0
    && not (Faultplan.is_armed Spice.Transient.Fault.injector)
  in
  let checkpoint =
    match checkpoint_dir with
    | None -> None
    | Some dir ->
        Some
          (Runtime.Checkpoint.open_ ~dir
             ~name:("montecarlo-" ^ scenario.Scenario.name)
             ~fingerprint:
               (Eval.sweep_fingerprint ~tag:"montecarlo.run"
                  ~schema:"sample/3" ?ladder ~techs ~engine scenario
                  ([ string_of_int seed; string_of_int samples ]
                  @
                  if pruning then
                    [ Printf.sprintf "prune:%h" prune_tol_ps ]
                  else [])))
  in
  (* The noiseless (victim-only) run depends on the aggressors' quiet
     rail, which depends on their polarity: precompute each polarity
     that was drawn, before fanning out. A noiseless run that fails
     beyond the fallback ladder turns all samples of that polarity
     into typed failed cases rather than aborting the experiment. *)
  let noiseless = Hashtbl.create 2 in
  Array.iter
    (fun (_, rising) ->
      if not (Hashtbl.mem noiseless rising) then
        Hashtbl.add noiseless rising
          (match
             Injection.noiseless ~engine
               { scenario with Scenario.aggressor_rising = rising }
           with
          | r -> Ok r
          | exception Runtime.Failure.Error f -> Error f
          | exception Spice.Transient.No_convergence at ->
              Error (Runtime.Failure.Non_convergence { at })))
    draws;
  (* Per-polarity overlap interval: a draw whose alignment provably
     cannot inject noise during the victim's critical window gets the
     noiseless run substituted for its noisy one — the receiver replay
     of that wave is shared across all such draws (content-cached), so
     the transient solve is skipped entirely. *)
  let overlap = Hashtbl.create 2 in
  if pruning then
    Hashtbl.iter
      (fun rising nl ->
        match nl with
        | Error _ -> ()
        | Ok nl ->
            let scen = { scenario with Scenario.aggressor_rising = rising } in
            Hashtbl.add overlap rising
              (Alignment.overlap_interval
                 ~config:
                   { Alignment.default with Alignment.prune_tol_ps }
                 scen ~noiseless:nl))
      noiseless;
  let eval_draw (tau, rising) =
    let scen = { scenario with Scenario.aggressor_rising = rising } in
    let pruned =
      match Hashtbl.find_opt overlap rising with
      | Some (lo, hi) -> tau < lo || tau > hi
      | None -> false
    in
    let case =
      match Hashtbl.find noiseless rising with
      | Error f -> Eval.failed_case techs ~tau f
      | Ok nl -> (
          match
            Eval.evaluate_case ~techniques:techs ?ladder ~engine
              ?noisy:(if pruned then Some nl else None)
              scen ~noiseless:nl ~tau
          with
          | c -> c
          | exception e -> (
              match Eval.failure_of_exn e with
              | Some f -> Eval.failed_case techs ~tau f
              | None -> raise e))
    in
    { tau; aggressor_rising = rising; pruned; case }
  in
  let eval i =
    match checkpoint with
    | None -> eval_draw draws.(i)
    | Some cp -> (
        match Runtime.Checkpoint.find cp i with
        | Some (s : sample) -> s
        | None ->
            let s = eval_draw draws.(i) in
            Runtime.Checkpoint.record cp i s;
            s)
  in
  let cases =
    Array.to_list (Runtime.Engine.submit_batch engine samples eval)
  in
  (match Runtime.Engine.metrics engine with
  | Some m when pruning ->
      let np = List.length (List.filter (fun s -> s.pruned) cases) in
      Runtime.Metrics.incr ~n:(samples - np) m "noise.alignments_solved";
      Runtime.Metrics.incr ~n:np m "noise.alignments_pruned"
  | _ -> ());
  let summaries =
    List.map
      (fun (tech : Eqwave.Technique.t) ->
        let name = tech.Eqwave.Technique.name in
        let errs =
          List.filter_map
            (fun s ->
              List.find_opt
                (fun (m : Eval.case_metrics) -> m.Eval.technique = name)
                s.case.Eval.metrics
              |> Option.map (fun (m : Eval.case_metrics) -> m.Eval.delay_err)
              |> Option.join)
            cases
          |> List.map (fun e -> abs_float e *. 1e12)
          |> Array.of_list
        in
        let failed = samples - Array.length errs in
        if Array.length errs = 0 then
          (* All samples failed: honest zero counts, not nan sentinels
             that poison downstream arithmetic — same convention as
             [Eval.summarize_rows]. *)
          { technique = name; p50_ps = 0.0; p95_ps = 0.0; max_ps = 0.0;
            n = 0; failed }
        else
          {
            technique = name;
            p50_ps = Numerics.Stats.percentile errs 50.0;
            p95_ps = Numerics.Stats.percentile errs 95.0;
            max_ps = Numerics.Stats.max_abs errs;
            n = Array.length errs;
            failed;
          })
      techs
  in
  (cases, summaries)

let pp_summary ppf summaries =
  Format.fprintf ppf "@[<v>%-8s %8s %8s %8s %6s %7s@," "Method" "p50(ps)"
    "p95(ps)" "max(ps)" "n" "failed";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-8s %8.1f %8.1f %8.1f %6d %7d@," s.technique
        s.p50_ps s.p95_ps s.max_ps s.n s.failed)
    summaries;
  Format.fprintf ppf "@]"
