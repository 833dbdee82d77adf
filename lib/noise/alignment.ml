(* Branch-and-bound search over the aggressor alignment window.

   The exhaustive sweep solves one transient per grid point; most of
   those solves are provably non-critical. Two bound sources cap what
   any unexplored bracket between solved alignments can reach:

   - a physical model from the linear coupled interconnect: a cheap
     superposition estimate (Devgan's bound, [Interconnect.Noise_bound])
     of the worst noise any alignment can inject caps the total delay
     push-out ([nominal + push_cap]: the noise moves the measured
     crossing by at most its own amplitude along the victim's slowest
     in-band slope) and pins brackets whose aggressor activity window
     cannot overlap the victim's critical (threshold-band) window to
     the nominal delay;
   - a Piyavskii-style estimated Lipschitz rate: delay-vs-tau is an
     RC-smoothed landscape, so the secant slopes between already
     solved neighbors of a bracket, scaled by [safety], estimate how
     fast the delay can move inside it. A bracket is then bounded by
     max(d_lo, d_hi) + rate * w/2 with w the bracket width.

   Each refinement round bisects only the brackets whose bound still
   exceeds the incumbent by more than the coverage slack
   [prune_tol_ps] — the returned worst-case delay is therefore within
   [prune_tol_ps] of the exhaustive sweep's whenever the rate estimate
   holds, and every alignment the search did solve is byte-identical
   to the exhaustive solve at that grid point. Pruned brackets are
   discarded for good (the incumbent only grows, so the decision is
   final); each round's midpoints are solved through the batch API
   ([Injection.prewarm_noisy]).

   The model terms are conservative estimates and the observed-slope
   rate is an estimate outright (both carry the [safety] factor); the
   bench sweep gate and the property tests enforce the agreement
   empirically. [prune_tol_ps = 0] bypasses the bounds entirely and
   reproduces the exhaustive sweep byte-for-byte. *)

type config = { prune_tol_ps : float; coarse : int; safety : float }

let default = { prune_tol_ps = 0.0; coarse = 9; safety = 1.5 }

type stats = { total : int; solved : int; pruned : int; rounds : int }

type result = {
  best_index : int;
  best_tau : float;
  best_delay : float;
  delays : float option array;
  stats : stats;
}

let mid_delay scenario run =
  let th = Device.Process.thresholds scenario.Scenario.proc in
  let vm = Waveform.Thresholds.v_mid th in
  match
    ( Waveform.Wave.last_crossing run.Injection.far vm,
      Waveform.Wave.last_crossing run.Injection.rcv vm )
  with
  | Some ti, Some ty -> ty -. ti
  | _ ->
      Runtime.Failure.fail
        (Missing_crossing { what = "alignment probe"; level = vm })

let delay_at ?engine scenario ~noiseless:_ ~tau =
  mid_delay scenario (Injection.noisy ?engine scenario ~tau)

(* ------------------------------------------------------------------ *)
(* Bound model                                                         *)

type model = {
  nominal : float;   (* noiseless mid-threshold delay, seconds *)
  n_peak : float;    (* Devgan peak-noise bound at the far end, volts *)
  s_min : float;     (* slowest |dV/dt| of the noiseless far wave
                        inside the threshold band, V/s *)
  push_cap : float;  (* max delay push-out any alignment can cause, s *)
  lambda : float;    (* max |d(delay)/d(tau)|, dimensionless *)
  ov_lo : float;     (* tau range whose aggressor activity can overlap *)
  ov_hi : float;     (* the victim's critical window at all *)
}

(* A model with every term disabled: bounds are infinite, the overlap
   interval covers every tau — branch-and-bound degenerates to the
   exhaustive sweep. Used when the noiseless run is too degenerate to
   estimate from (missing crossings, flat band). *)
let unbounded nominal =
  {
    nominal;
    n_peak = infinity;
    s_min = 0.0;
    push_cap = infinity;
    lambda = infinity;
    ov_lo = neg_infinity;
    ov_hi = infinity;
  }

let model ?(config = default) scenario ~noiseless =
  let nominal = mid_delay scenario noiseless in
  let th = Device.Process.thresholds scenario.Scenario.proc in
  let vl = Waveform.Thresholds.v_low th
  and vh = Waveform.Thresholds.v_high th in
  let far = noiseless.Injection.far and rcv = noiseless.Injection.rcv in
  let line = scenario.Scenario.line in
  match Waveform.Wave.slew far th with
  | None -> unbounded nominal
  | Some slew_far when slew_far <= 0.0 -> unbounded nominal
  | Some slew_far -> (
      (* Slowest in-band slope of the victim's own transition: the
         noise-to-delay conversion gain is 1/s at the crossing, and
         s_min is the worst case over the band. *)
      let ts = Waveform.Wave.times far
      and vs = Waveform.Wave.values far
      and dv = Waveform.Wave.values (Waveform.Wave.derivative far) in
      let s_min = ref infinity in
      Array.iteri
        (fun i v ->
          if v >= vl && v <= vh then begin
            let s = Float.abs dv.(i) in
            if s < !s_min then s_min := s
          end)
        vs;
      ignore ts;
      let s_min = !s_min in
      if not (Float.is_finite s_min) || s_min <= 0.0 then unbounded nominal
      else
        (* Aggressor far-end slew rate: the aggressor chain is the
           victim chain, so its measured far-end slew is the estimate;
           nearer coupling sections slew faster, hence the safety
           factor on the rate. *)
        let mu = config.safety *. (vh -. vl) /. slew_far in
        (* Effective holding resistance of the victim driver, backed
           out of the measured far-end slew against the line load. *)
        let r_drv =
          Float.max 1.0
            ((slew_far /. (2.2 *. line.Interconnect.Rcline.ctotal))
            -. (line.Interconnect.Rcline.rtotal /. 2.0))
        in
        let n_peak =
          float_of_int scenario.Scenario.n_aggressors
          *. Interconnect.Noise_bound.line_bound ~driver_resistance:r_drv
               ~line ~cm_total:scenario.Scenario.cm_total
               ~aggressor_slew_rate:mu
        in
        let push_cap = config.safety *. 2.0 *. n_peak /. s_min in
        (* Noise-induced slope perturbation scale: the injected bump
           rises and falls within one aggressor transition, so its
           slope is at most ~2 N_peak / slew. *)
        let d_slope = 2.0 *. n_peak /. slew_far in
        let lambda =
          config.safety *. d_slope /. Float.max (s_min -. d_slope) (s_min /. 2.0)
        in
        (* Critical window: while either probe is inside the threshold
           band, noise can move a measured crossing. Outside it — with
           margin for the push itself and the line's settling time —
           the waves sit at their rails and the measurement is
           insensitive. *)
        let rc =
          (r_drv +. line.Interconnect.Rcline.rtotal)
          *. (line.Interconnect.Rcline.ctotal
             +. (scenario.Scenario.cm_total
                *. float_of_int scenario.Scenario.n_aggressors))
        in
        let crossings w =
          List.filter_map Fun.id
            [
              Waveform.Wave.first_crossing w vl;
              Waveform.Wave.first_crossing w vh;
              Waveform.Wave.last_crossing w vl;
              Waveform.Wave.last_crossing w vh;
            ]
        in
        match (crossings far, crossings rcv) with
        | [], _ | _, [] -> unbounded nominal
        | cf, cr ->
            let all = cf @ cr in
            let t_enter = List.fold_left Float.min infinity all in
            let t_exit = List.fold_left Float.max neg_infinity all in
            let margin = push_cap +. (3.0 *. rc) in
            let crit_lo = t_enter -. margin and crit_hi = t_exit +. margin in
            (* Aggressor activity after its input starts at tau: the
               chain latency mirrors the victim's own (identical
               stages), scaled by the safety factor, plus settling. *)
            let t_exit_far = List.fold_left Float.max neg_infinity cf in
            let act_hi =
              (config.safety *. (t_exit_far -. scenario.Scenario.victim_t0))
              +. (3.0 *. rc)
            in
            {
              nominal;
              n_peak;
              s_min;
              push_cap;
              lambda;
              ov_lo = crit_lo -. act_hi;
              ov_hi = crit_hi;
            })

let overlap_interval ?config scenario ~noiseless =
  let m = model ?config scenario ~noiseless in
  (m.ov_lo, m.ov_hi)

let bracket_bound m ~lambda_obs ~d_lo ~d_hi ~tau_lo ~tau_hi =
  let base = Float.max d_lo d_hi in
  if tau_hi <= m.ov_lo || tau_lo >= m.ov_hi then Float.max m.nominal base
  else
    (* Both rates over-estimate; trust the tighter one. *)
    let rate = Float.min m.lambda lambda_obs in
    Float.min (m.nominal +. m.push_cap)
      (base +. (rate *. ((tau_hi -. tau_lo) /. 2.0)))

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let search ?(config = default) ?engine scenario ~noiseless =
  let engine = Runtime.Engine.resolve engine in
  let taus = Scenario.taus scenario in
  let n = Array.length taus in
  let delays = Array.make n None in
  let rounds = ref 0 in
  (* Solve a round of grid indices: warm the cache through the batch
     API, then fan the (now cached) probes out over the pool. *)
  let solve_round idxs =
    match idxs with
    | [] -> ()
    | _ ->
        incr rounds;
        let arr = Array.of_list idxs in
        let k = Array.length arr in
        ignore
          (Injection.prewarm_noisy ~engine scenario
             (Array.map (fun i -> taus.(i)) arr));
        let ds =
          Runtime.Engine.submit_batch engine k (fun j ->
              delay_at ~engine scenario ~noiseless ~tau:taus.(arr.(j)))
        in
        Array.iteri (fun j d -> delays.(arr.(j)) <- Some d) ds
  in
  let tol = config.prune_tol_ps *. 1e-12 in
  if tol <= 0.0 || n <= Int.max 2 config.coarse then
    (* Exhaustive: solve every grid point in index order — exactly the
       sweep branch-and-bound replaces, byte for byte. *)
    solve_round (List.init n Fun.id)
  else begin
    let m = model ~config scenario ~noiseless in
    (* Coarse phase: an evenly spread sub-grid, endpoints included. *)
    let c = Int.min config.coarse n in
    let coarse =
      List.sort_uniq compare
        (List.init c (fun k -> ((k * (n - 1)) + ((c - 1) / 2)) / (c - 1)))
    in
    solve_round coarse;
    (* Refine: bisect every unsolved gap whose bound still exceeds the
       incumbent by more than the coverage slack; the rest are pruned
       for good (the incumbent only grows, so the decision is final). *)
    let exhausted = ref false in
    while not !exhausted do
      let incumbent =
        Array.fold_left
          (fun acc -> function Some d -> Float.max acc d | None -> acc)
          neg_infinity delays
      in
      (* Ascending solved grid points, and the secant slope between
         consecutive ones — the local rate samples the Piyavskii-style
         estimate is built from. *)
      let ids =
        let acc = ref [] in
        for i = n - 1 downto 0 do
          match delays.(i) with
          | Some d -> acc := (i, d) :: !acc
          | None -> ()
        done;
        Array.of_list !acc
      in
      let k = Array.length ids in
      let slope j =
        let i0, d0 = ids.(j) and i1, d1 = ids.(j + 1) in
        Float.abs (d1 -. d0)
        /. Float.max epsilon_float (taus.(i1) -. taus.(i0))
      in
      let mids = ref [] in
      for j = 0 to k - 2 do
        let i0, d_lo = ids.(j) and i1, d_hi = ids.(j + 1) in
        if i1 > i0 + 1 then begin
          (* The bracket's own secant plus its solved neighbors': a
             peak hiding between flat endpoints still shows a slope on
             one of the flanks once the coarse grid straddles it. *)
          let lam = ref (slope j) in
          if j > 0 then lam := Float.max !lam (slope (j - 1));
          if j + 2 <= k - 1 then lam := Float.max !lam (slope (j + 1));
          let lambda_obs = config.safety *. !lam in
          let b =
            bracket_bound m ~lambda_obs ~d_lo ~d_hi ~tau_lo:taus.(i0)
              ~tau_hi:taus.(i1)
          in
          if b > incumbent +. tol then mids := ((i0 + i1) / 2) :: !mids
        end
      done;
      (match !mids with
      | [] -> exhausted := true
      | ms -> solve_round (List.rev ms))
    done
  end;
  (* The final argmax scans solved points in ascending grid order, so
     the first-maximum-wins tie rule matches the exhaustive sweep. *)
  let best_index = ref (-1) and best = ref neg_infinity in
  Array.iteri
    (fun i -> function
      | Some d -> if !best_index < 0 || d > !best then begin
            best_index := i;
            best := d
          end
      | None -> ())
    delays;
  if !best_index < 0 then
    Runtime.Failure.fail
      (Unsupported { what = "Alignment.search: empty alignment grid" });
  let solved =
    Array.fold_left
      (fun acc d -> if d = None then acc else acc + 1)
      0 delays
  in
  let stats =
    { total = n; solved; pruned = n - solved; rounds = !rounds }
  in
  (match Runtime.Engine.metrics engine with
  | Some mtr ->
      Runtime.Metrics.incr ~n:solved mtr "noise.alignments_solved";
      Runtime.Metrics.incr ~n:stats.pruned mtr "noise.alignments_pruned"
  | None -> ());
  {
    best_index = !best_index;
    best_tau = taus.(!best_index);
    best_delay = !best;
    delays;
    stats;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d/%d alignments solved (%d pruned, %d rounds)"
    s.solved s.total s.pruned s.rounds
