(* How the Gamma_eff ladder resolved a case: which rung accepted the
   waveform, what the degradation cost (RMS deviation of the accepted
   ramp from the sampled noisy waveform), and why earlier rungs
   skipped. Defined before [case_metrics] so the shared [technique]
   field resolves to the latter under type-directed disambiguation. *)
type degradation = {
  technique : string;
  rung : int;
  score_v : float;
  skipped : (string * string) list;
}

type case_metrics = {
  technique : string;
  ramp : Waveform.Ramp.t option;
  delay_est : float option;
  delay_err : float option;
  out_arrival_err : float option;
  out_slew_err : float option;
  failure : Runtime.Failure.t option;
}

type case_eval = {
  tau : float;
  delay_ref : float;
  ref_out_arrival : float;
  chain_vs_replay : float;
  mapping : (degradation, Runtime.Failure.t) result;
  metrics : case_metrics list;
}

let mid_crossing th w what =
  let level = Waveform.Thresholds.v_mid th in
  match Waveform.Wave.last_crossing w level with
  | Some t -> t
  | None -> Runtime.Failure.fail (Missing_crossing { what; level })

let failed tech f =
  {
    technique = tech;
    ramp = None;
    delay_est = None;
    delay_err = None;
    out_arrival_err = None;
    out_slew_err = None;
    failure = Some f;
  }

(* Classify an exception escaping a case evaluation into a typed
   failure, or None for genuine bugs that must propagate. Techniques
   signal domain errors with [Stdlib.Failure]. *)
let failure_of_exn = function
  | Eqwave.Technique.Unsupported msg ->
      Some (Runtime.Failure.Unsupported { what = msg })
  | Stdlib.Failure msg -> Some (Runtime.Failure.Unsupported { what = msg })
  | e -> Runtime.Failure.of_exn e

(* A case whose reference simulation itself failed beyond recovery:
   every technique is reported failed and the reference figures are nan
   sentinels. The row summaries never read delay fields of failed
   metrics, so the nans stay contained; [n_failed] carries the story. *)
let failed_case techniques ~tau msg =
  {
    tau;
    delay_ref = Float.nan;
    ref_out_arrival = Float.nan;
    chain_vs_replay = Float.nan;
    mapping = Error msg;
    metrics =
      List.map
        (fun (tech : Eqwave.Technique.t) ->
          failed tech.Eqwave.Technique.name msg)
        techniques;
  }

(* Run the degradation ladder over an already-built context and convert
   its result into the typed mapping carried on the case. *)
let run_ladder ?metrics ladder ctx =
  match Eqwave.Ladder.run ladder ctx with
  | Ok o ->
      (match metrics with
      | Some m ->
          Runtime.Metrics.incr m
            (Printf.sprintf "ladder.rung%d" o.Eqwave.Ladder.rung);
          if o.Eqwave.Ladder.rung > 0 then
            Runtime.Metrics.incr m "ladder.degraded"
      | None -> ());
      Ok
        {
          technique = o.Eqwave.Ladder.technique;
          rung = o.Eqwave.Ladder.rung;
          score_v = o.Eqwave.Ladder.score_v;
          skipped =
            List.map
              (fun (s : Eqwave.Ladder.skip) ->
                (s.Eqwave.Ladder.technique, s.Eqwave.Ladder.reason))
              o.Eqwave.Ladder.skipped;
        }
  | Error skips ->
      (match metrics with
      | Some m -> Runtime.Metrics.incr m "ladder.exhausted"
      | None -> ());
      let last =
        match List.rev skips with
        | s :: _ -> s.Eqwave.Ladder.reason
        | [] -> "empty ladder"
      in
      Error
        (Runtime.Failure.Mapping_exhausted
           { tried = List.length skips; last })

let evaluate_case ?techniques ?samples
    ?(ladder = Eqwave.Ladder.default) ?engine ?noisy scenario ~noiseless ~tau =
  let engine = Runtime.Engine.resolve engine in
  let techniques =
    match techniques with Some ts -> ts | None -> Eqwave.Registry.all
  in
  let th = Device.Process.thresholds scenario.Scenario.proc in
  (* [?noisy] lets a caller that already knows the case's waveforms —
     Monte-Carlo substituting the noiseless run for a provably
     non-overlapping draw — skip the simulation. *)
  let noisy =
    match noisy with
    | Some r -> r
    | None -> Injection.noisy ~engine scenario ~tau
  in
  let ctx = Injection.ctx_of_runs ?samples scenario ~noiseless ~noisy in
  let tstop = scenario.Scenario.tstop in
  let t_in = mid_crossing th noisy.Injection.far "noisy input" in
  (* Reference: replay the recorded noisy waveform into the receiver. *)
  let replay_out =
    Injection.receiver_response ~engine scenario
      ~input:(Spice.Source.of_wave noisy.Injection.far)
      ~tstop
  in
  let t_out_ref = mid_crossing th replay_out "replayed output" in
  let t_out_chain = mid_crossing th noisy.Injection.rcv "chain output" in
  let delay_ref = t_out_ref -. t_in in
  let ref_out_slew = Waveform.Wave.slew replay_out th in
  let eval_technique (tech : Eqwave.Technique.t) =
    let name = tech.Eqwave.Technique.name in
    match tech.Eqwave.Technique.run ctx with
    | exception Eqwave.Technique.Unsupported msg ->
        failed name (Runtime.Failure.Unsupported { what = msg })
    | exception Stdlib.Failure msg ->
        failed name (Runtime.Failure.Unsupported { what = msg })
    | ramp -> (
        (* Give the receiver enough room to see the whole equivalent
           ramp plus its own response, wherever the fit landed. *)
        let tstop =
          Float.max tstop (Waveform.Ramp.t_settle ramp +. 1.5e-9)
        in
        match
          Injection.receiver_response ~engine scenario
            ~input:(Spice.Source.of_ramp ramp) ~tstop
        with
        | exception Runtime.Failure.Error f -> failed name f
        | exception Spice.Transient.No_convergence at ->
            failed name (Runtime.Failure.Non_convergence { at })
        | out -> (
            match mid_crossing th out "technique output" with
            | exception Runtime.Failure.Error f -> failed name f
            | t_out_est ->
                let t_in_est = Waveform.Ramp.arrival ramp th in
                let delay_est = t_out_est -. t_in_est in
                let out_slew_err =
                  match (Waveform.Wave.slew out th, ref_out_slew) with
                  | Some a, Some b -> Some (a -. b)
                  | _ -> None
                in
                {
                  technique = name;
                  ramp = Some ramp;
                  delay_est = Some delay_est;
                  delay_err = Some (delay_est -. delay_ref);
                  out_arrival_err = Some (t_out_est -. t_out_ref);
                  out_slew_err;
                  failure = None;
                }))
  in
  (* The ladder mapping is a handful of array fits — microseconds next
     to the simulations above — so every case gets one. *)
  let mapping =
    run_ladder ?metrics:(Runtime.Engine.metrics engine) ladder ctx
  in
  {
    tau;
    delay_ref;
    ref_out_arrival = t_out_ref;
    chain_vs_replay = t_out_chain -. t_out_ref;
    mapping;
    metrics = List.map eval_technique techniques;
  }

type row = {
  name : string;
  max_abs_ps : float;
  avg_abs_ps : float;
  n_cases : int;
  n_failed : int;
}

(* Ladder outcome distribution over a sweep: [rung_counts.(k)] cases
   resolved at rung k; [n_exhausted] ran out of rungs; [n_unmapped]
   never reached the ladder (their reference simulation failed).
   [avg_score_v] averages the deviation score over the mapped cases. *)
type degradation_summary = {
  ladder : string list;
  rung_counts : int array;
  n_exhausted : int;
  n_unmapped : int;
  avg_score_v : float;
}

type table = {
  scenario : string;
  rows : row list;
  cases : case_eval list;
  degradation : degradation_summary;
  prune : Alignment.stats option;
      (** branch-and-bound accounting when the sweep ran pruned;
          [cases] then holds only the solved alignments *)
}

let summarize_rows techniques cases =
  (* Metrics are stored in technique order; index positionally so that
     several variants sharing a display name (ablations) stay distinct. *)
  List.mapi
    (fun idx (tech : Eqwave.Technique.t) ->
      let name = tech.Eqwave.Technique.name in
      let errs =
        List.filter_map
          (fun c ->
            List.nth_opt c.metrics idx
            |> Option.map (fun m -> m.delay_err)
            |> Option.join)
          cases
      in
      let failed =
        List.length cases - List.length errs
      in
      match errs with
      (* All cases failed: report honest zero counts, not nan
         sentinels that poison downstream max/avg arithmetic and JSON
         output; [n_failed] carries the story. *)
      | [] -> { name; max_abs_ps = 0.0; avg_abs_ps = 0.0; n_cases = 0; n_failed = failed }
      | errs ->
          let abs_ps = Array.of_list (List.map (fun e -> abs_float e *. 1e12) errs) in
          {
            name;
            max_abs_ps = Numerics.Stats.max_abs abs_ps;
            avg_abs_ps = Numerics.Stats.mean abs_ps;
            n_cases = Array.length abs_ps;
            n_failed = failed;
          })
    techniques

let summarize_degradation ladder cases =
  let names = Eqwave.Ladder.names ladder in
  let rung_counts = Array.make (Eqwave.Ladder.length ladder) 0 in
  let n_exhausted = ref 0 and n_unmapped = ref 0 in
  let score_sum = ref 0.0 and n_mapped = ref 0 in
  List.iter
    (fun c ->
      match c.mapping with
      | Ok d ->
          if d.rung < Array.length rung_counts then
            rung_counts.(d.rung) <- rung_counts.(d.rung) + 1;
          score_sum := !score_sum +. d.score_v;
          incr n_mapped
      | Error (Runtime.Failure.Mapping_exhausted _) -> incr n_exhausted
      | Error _ -> incr n_unmapped)
    cases;
  {
    ladder = names;
    rung_counts;
    n_exhausted = !n_exhausted;
    n_unmapped = !n_unmapped;
    avg_score_v =
      (if !n_mapped = 0 then 0.0 else !score_sum /. float_of_int !n_mapped);
  }

(* Everything that determines a per-case result, so a checkpoint
   journal written by a different sweep (or an older payload layout)
   can never be replayed into this one. [Scenario.fingerprint]
   deliberately omits the alignment window and case count; the sweep
   cares, so they are appended here. The degradation settings matter
   too: the ladder order decides which rung a case resolves at, the
   deadline decides which solves get cancelled, and a guard replays
   extra reference solves (shifting fault-injection indices) — so
   resumed journals must not mix any of them. *)
let sweep_fingerprint ~tag ~schema ?samples
    ?(ladder = Eqwave.Ladder.default) ~techs ~engine scenario extra =
  String.concat "|"
    ([
       tag;
       schema;
       Scenario.fingerprint scenario;
       Printf.sprintf "%h" scenario.Scenario.window;
       Printf.sprintf "%h" scenario.Scenario.window_offset;
       string_of_int scenario.Scenario.cases;
       Spice.Transient.config_fingerprint (Runtime.Engine.solver engine);
       Runtime.Resilience.fingerprint (Runtime.Engine.resilience engine);
       (* the receiver-replay reference: a constant part, kept so
          existing journals keep their fingerprint *)
       "replay";
       (match samples with Some n -> string_of_int n | None -> "default");
       Eqwave.Ladder.fingerprint ladder;
       (match Runtime.Engine.deadline_ms engine with
       | Some ms -> Printf.sprintf "deadline:%h" ms
       | None -> "deadline:none");
       (match Runtime.Engine.guard engine with
       | Some g -> Runtime.Guard.fingerprint g
       | None -> "guard:none");
     ]
    @ List.map (fun (t : Eqwave.Technique.t) -> t.Eqwave.Technique.name) techs
    @ extra)

(* Reference delay of one case for the differential guard: re-simulate
   the noisy run and the receiver replay under the reference engine and
   measure the same mid-to-mid delay [evaluate_case] reports. Kept
   deliberately light — none of the per-technique work. *)
let guard_reference_delay ~engine scenario ~tau =
  let th = Device.Process.thresholds scenario.Scenario.proc in
  let noisy = Injection.noisy ~engine scenario ~tau in
  let t_in = mid_crossing th noisy.Injection.far "noisy input (guard)" in
  let replay_out =
    Injection.receiver_response ~engine scenario
      ~input:(Spice.Source.of_wave noisy.Injection.far)
      ~tstop:scenario.Scenario.tstop
  in
  mid_crossing th replay_out "replayed output (guard)" -. t_in

let run_table ?techniques ?samples ?ladder ?progress
    ?checkpoint_dir ?engine ?(prune_tol_ps = 0.0) scenario =
  let engine = Runtime.Engine.resolve engine in
  let techs =
    match techniques with Some ts -> ts | None -> Eqwave.Registry.all
  in
  let the_ladder =
    match ladder with Some l -> l | None -> Eqwave.Ladder.default
  in
  let guard = Runtime.Engine.guard engine in
  (* The guard's reference engine shares the cache and supervision of
     the sweep engine (keys differ by config fingerprint, so fast and
     reference entries never collide) but must not re-enter the pool —
     guard checks already run inside pool tasks. *)
  let guard_engine =
    lazy
      (let e = Runtime.Engine.reference in
       let e =
         match Runtime.Engine.cache engine with
         | Some c -> Runtime.Engine.with_cache e c
         | None -> e
       in
       Runtime.Engine.with_resilience e (Runtime.Engine.resilience engine))
  in
  (* The noiseless run is shared by every case; if it fails beyond the
     fallback ladder the whole sweep is unmeasurable, but that is still
     reported as rows full of typed failed cases rather than an
     escaping exception — sweeps must always return a table. *)
  let noiseless =
    match Injection.noiseless ~engine scenario with
    | r -> Ok r
    | exception Runtime.Failure.Error f -> Error f
    | exception Spice.Transient.No_convergence at ->
        Error (Runtime.Failure.Non_convergence { at })
  in
  let taus = Scenario.taus scenario in
  let total = Array.length taus in
  (* Branch-and-bound pruning of the alignment grid: run the bounded
     search first (it batch-solves exactly the alignments it needs and
     leaves them in the cache), then evaluate only the solved indices.
     Disabled — along with its fingerprint imprint, so existing
     checkpoints stay valid — at the default zero tolerance, and under
     an armed fault plan (pruning reorders solve indices, which would
     shift deterministic fault assignment). *)
  let pruning =
    prune_tol_ps > 0.0
    && (not (Faultplan.is_armed Spice.Transient.Fault.injector))
    && Result.is_ok noiseless
  in
  let checkpoint =
    match checkpoint_dir with
    | None -> None
    | Some dir ->
        Some
          (Runtime.Checkpoint.open_ ~dir
             ~name:("table1-" ^ scenario.Scenario.name)
             ~fingerprint:
               (sweep_fingerprint ~tag:"eval.run_table" ~schema:"case_eval/2"
                  ?samples ~ladder:the_ladder ~techs ~engine
                  scenario
                  (if pruning then
                     [ Printf.sprintf "prune:%h" prune_tol_ps ]
                   else [])))
  in
  (* Pre-solve pass: solve the alignment sweep's noisy runs through
     the batch API before the per-case evaluation walks them, splitting
     batch-sized groups over the pool. The batch API runs the same
     [Transient.run], so its waveforms are byte-identical; they are
     published into the cache under the keys the per-case path reads,
     so the sweep below sees cache hits. Cases the batch failed to
     solve or validate stay uncached and go through the full
     resilience ladder as before. Skipped when there is no cache
     (nowhere to publish), when the batch width is 1, and when a fault
     plan is armed — deterministic fault assignment is by solve index,
     which a pre-solve pass would reorder. Checkpoint-replayed cases
     are not warmed: they will not simulate at all. *)
  let () =
    let b = Runtime.Engine.batch engine in
    if
      b > 1 && (not pruning)
      && Option.is_some (Runtime.Engine.cache engine)
      && (not (Faultplan.is_armed Spice.Transient.Fault.injector))
      && Result.is_ok noiseless
    then begin
      let wanted =
        Array.to_list (Array.mapi (fun i tau -> (i, tau)) taus)
        |> List.filter (fun (i, _) ->
               match checkpoint with
               | None -> true
               | Some cp ->
                   Option.is_none
                     (Runtime.Checkpoint.find cp i : case_eval option))
        |> List.map snd |> Array.of_list
      in
      let ngroups = (Array.length wanted + b - 1) / b in
      if ngroups > 0 then
        ignore
          (Runtime.Engine.submit_batch ~chunk:1 engine ngroups (fun g ->
               let lo = g * b in
               let len = Int.min b (Array.length wanted - lo) in
               Injection.prewarm_noisy ~engine scenario
                 (Array.sub wanted lo len)))
    end
  in
  (* Cases are independent pure simulations: sweep them on the pool.
     Results land in input order, so parallel output is identical to
     the sequential path. Progress reports completion count, which is
     monotone but not index-ordered under parallelism. *)
  let completed = Atomic.make 0 in
  (* Differential guard: for the deterministic sample of cases, replay
     the case's reference delay under the reference preset and compare.
     Only freshly computed cases are guarded — checkpoint-replayed ones
     were checked when first computed. *)
  let guard_check i (c : case_eval) =
    match guard with
    | Some g when Runtime.Guard.selects g i && Float.is_finite c.delay_ref -> (
        match
          guard_reference_delay
            ~engine:(Lazy.force guard_engine)
            scenario ~tau:taus.(i)
        with
        | ref_delay ->
            ignore (Runtime.Guard.record g ~delta_s:(c.delay_ref -. ref_delay))
        | exception e -> (
            match failure_of_exn e with
            | Some _ -> Runtime.Guard.record_error ()
            | None -> raise e))
    | _ -> ()
  in
  let compute i =
    match noiseless with
    | Error f -> failed_case techs ~tau:taus.(i) f
    | Ok noiseless -> (
        match
          evaluate_case ~techniques:techs ?samples
            ~ladder:the_ladder ~engine scenario ~noiseless ~tau:taus.(i)
        with
        | c ->
            guard_check i c;
            c
        | exception e -> (
            match failure_of_exn e with
            | Some f -> failed_case techs ~tau:taus.(i) f
            | None -> raise e))
  in
  (* Which grid indices actually get evaluated: all of them, or — when
     pruning — only the alignments the branch-and-bound search solved
     (its batched rounds already left those runs in the cache). *)
  let indices, prune_stats =
    if not pruning then (Array.init total Fun.id, None)
    else
      let noiseless = Result.get_ok noiseless in
      let r =
        Alignment.search
          ~config:{ Alignment.default with Alignment.prune_tol_ps }
          ~engine scenario ~noiseless
      in
      let keep = ref [] in
      for i = total - 1 downto 0 do
        if r.Alignment.delays.(i) <> None then keep := i :: !keep
      done;
      (Array.of_list !keep, Some r.Alignment.stats)
  in
  let n_eval = Array.length indices in
  let eval j =
    let i = indices.(j) in
    let c =
      match checkpoint with
      | None -> compute i
      | Some cp -> (
          match Runtime.Checkpoint.find cp i with
          | Some (c : case_eval) -> c
          | None ->
              let c = compute i in
              Runtime.Checkpoint.record cp i c;
              c)
    in
    let k = 1 + Atomic.fetch_and_add completed 1 in
    (match progress with Some f -> f k n_eval | None -> ());
    c
  in
  let cases = Array.to_list (Runtime.Engine.submit_batch engine n_eval eval) in
  {
    scenario = scenario.Scenario.name;
    rows = summarize_rows techs cases;
    cases;
    degradation = summarize_degradation the_ladder cases;
    prune = prune_stats;
  }

let pp_degradation ppf d =
  Format.fprintf ppf "ladder %s: rungs [%s]"
    (String.concat ">" d.ladder)
    (String.concat "; "
       (Array.to_list (Array.map string_of_int d.rung_counts)));
  if d.n_exhausted > 0 then Format.fprintf ppf ", %d exhausted" d.n_exhausted;
  if d.n_unmapped > 0 then Format.fprintf ppf ", %d unmapped" d.n_unmapped;
  Format.fprintf ppf ", avg deviation %.4g V" d.avg_score_v

let pp_table ppf t =
  Format.fprintf ppf "@[<v>%s — gate delay error vs reference (ps)@," t.scenario;
  Format.fprintf ppf "%-8s %10s %10s %8s %8s@," "Method" "Max" "Avg" "cases"
    "failed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8s %10.1f %10.1f %8d %8d@," r.name r.max_abs_ps
        r.avg_abs_ps r.n_cases r.n_failed)
    t.rows;
  Format.fprintf ppf "%a@," pp_degradation t.degradation;
  Format.fprintf ppf "@]"
