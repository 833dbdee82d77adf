type run = { far : Waveform.Wave.t; rcv : Waveform.Wave.t }

(* The process 10/50/90 thresholds: the levels delay and slew are
   measured at. *)
let threshold_levels scenario =
  let th = Device.Process.thresholds scenario.Scenario.proc in
  Waveform.Thresholds.[ v_low th; v_mid th; v_high th ]

(* All entry points take the unified [?engine] (absent = the reference
   engine). The solver config comes from the engine with the scenario's
   grid parameters layered on top, and — under adaptive stepping — the
   thresholds as crossing-refinement levels, so delay/slew measurement
   points keep fixed-grid resolution. *)
let solver_config engine scenario ~dt ~tstop =
  let open Spice.Transient in
  let c = Runtime.Engine.solver engine in
  let c = with_dt c dt in
  let c = with_tstop c tstop in
  with_crossing_levels_if_empty c (threshold_levels scenario)

(* Cached simulations store their probed waveforms as a wave list; the
   key covers the scenario content, everything case-specific, and the
   full solver configuration. *)
let memo_waves cache key compute =
  match cache with
  | None -> compute ()
  | Some c -> Runtime.Cache.memo c key compute

(* Purge the cache entry for a rejected (invalid) result before the
   ladder moves on, so the bad waveform cannot be replayed later. *)
let reject_cached cache key_of config =
  match cache with
  | Some c -> Runtime.Cache.remove c (key_of config)
  | None -> ()

(* The key digests the attempt's own config fingerprint, so ladder
   rungs (which each resolve to a distinct config) never alias the
   primary attempt's entries. Shared with [prewarm_noisy], which must
   publish batch results under exactly the key the scalar path reads. *)
let sim_key scenario config ~aggressor_active ~tau =
  Runtime.Cache.Key.(
    make "injection.simulate"
      [
        str (Scenario.fingerprint scenario);
        str (Spice.Transient.config_fingerprint config);
        bool aggressor_active;
        float (if aggressor_active then tau else 0.0);
      ])

let simulate ?engine scenario ~aggressor_active ~tau =
  let engine = Runtime.Engine.resolve engine in
  let base_config =
    solver_config engine scenario ~dt:scenario.Scenario.dt
      ~tstop:scenario.Scenario.tstop
  in
  let cache = Runtime.Engine.cache engine in
  let key_of config = sim_key scenario config ~aggressor_active ~tau in
  (* Each solve attempt runs under the engine's per-solve wall-clock
     budget (cooperative cancellation at step boundaries). The budget
     is per attempt, not per case, so a resilience-ladder retry gets a
     fresh allowance; it never enters the cache key because it cannot
     change a completed solve's result. *)
  let deadline_ms = Runtime.Engine.deadline_ms engine in
  let attempt config =
    let compute () =
      let ckt, hints = Scenario.build scenario ~aggressor_active ~tau in
      let res = Spice.Transient.run ~config ~ic:hints ckt in
      [
        Spice.Transient.probe res (Scenario.victim_far_node scenario);
        Spice.Transient.probe res (Scenario.victim_rcv_node scenario);
      ]
    in
    Runtime.Pool.with_deadline ?ms:deadline_ms (fun () ->
        memo_waves cache (key_of config) compute)
  in
  let policy = Runtime.Engine.resilience engine in
  let proc = scenario.Scenario.proc in
  let th = Device.Process.thresholds proc in
  let validate waves =
    let labeled =
      match waves with
      | [ far; rcv ] -> [ ("victim far end", far); ("receiver output", rcv) ]
      | _ -> assert false
    in
    (* The victim drives rail to rail in every scenario, so both probes
       must cross 0.5 Vdd; a "successful" solve without that crossing
       is garbage and goes back to the ladder. *)
    Runtime.Resilience.validate_waves policy
      ~rails:(0.0, proc.Device.Process.vdd)
      ~crossing:(Waveform.Thresholds.v_mid th)
      labeled
  in
  match
    Runtime.Resilience.run ~validate
      ~on_reject:(reject_cached cache key_of)
      policy ~config:base_config ~attempt
  with
  | Ok [ far; rcv ] -> { far; rcv }
  | Ok _ -> assert false
  | Error f -> Runtime.Failure.fail f

let noiseless ?engine scenario =
  simulate ?engine scenario ~aggressor_active:false ~tau:0.0

let noisy ?engine scenario ~tau =
  simulate ?engine scenario ~aggressor_active:true ~tau

(* Batch-first cache warming for an alignment sweep: every
   not-yet-cached tau is solved through the batch API
   ([Spice.Transient.run_batch_outcomes]) and the successful, validated
   waveform pairs are published into the engine's cache under exactly
   the key the scalar [noisy] path computes for its primary attempt.
   Failed or invalid cases are simply not cached — the later scalar
   call re-solves them under the full resilience ladder, so per-case
   retry and deadline semantics are untouched. Returns how many cases
   the batch solved (0 without a cache: nowhere to publish). *)
let prewarm_noisy ?engine scenario taus =
  let engine = Runtime.Engine.resolve engine in
  if Faultplan.is_armed Spice.Transient.Fault.injector then
    (* Deterministic fault plans assign faults by solve index; warming
       would reorder the sequence. Let the scalar path roll them. *)
    0
  else
  match Runtime.Engine.cache engine with
  | None -> 0
  | Some cache ->
      let config =
        solver_config engine scenario ~dt:scenario.Scenario.dt
          ~tstop:scenario.Scenario.tstop
      in
      let key tau = sim_key scenario config ~aggressor_active:true ~tau in
      let missing =
        Array.of_seq
          (Seq.filter
             (fun tau -> Option.is_none (Runtime.Cache.find cache (key tau)))
             (Array.to_seq taus))
      in
      if Array.length missing = 0 then 0
      else begin
        let builds =
          Array.map
            (fun tau -> Scenario.build scenario ~aggressor_active:true ~tau)
            missing
        in
        let ckts = Array.map fst builds in
        let ics = Array.map snd builds in
        let deadline_ms = Runtime.Engine.deadline_ms engine in
        let out =
          Runtime.Pool.with_deadline ?ms:deadline_ms (fun () ->
              Spice.Transient.run_batch_outcomes ~config ~ics ckts)
        in
        let policy = Runtime.Engine.resilience engine in
        let proc = scenario.Scenario.proc in
        let th = Device.Process.thresholds proc in
        let solved = ref 0 in
        Array.iteri
          (fun i outcome ->
            match outcome with
            | Error _ -> ()
            | Ok res ->
                incr solved;
                let far =
                  Spice.Transient.probe res (Scenario.victim_far_node scenario)
                in
                let rcv =
                  Spice.Transient.probe res (Scenario.victim_rcv_node scenario)
                in
                let invalid =
                  Runtime.Resilience.validate_waves policy
                    ~rails:(0.0, proc.Device.Process.vdd)
                    ~crossing:(Waveform.Thresholds.v_mid th)
                    [ ("victim far end", far); ("receiver output", rcv) ]
                in
                if invalid = None then
                  Runtime.Cache.store cache (key missing.(i)) [ far; rcv ])
          out;
        !solved
      end

let receiver_response ?dt ?engine scenario ~input ~tstop =
  let open Spice in
  let engine = Runtime.Engine.resolve engine in
  let dt =
    match dt with Some d -> d | None -> scenario.Scenario.dt /. 2.0
  in
  (* Only the thresholds' crossings are read from a replay, so it may
     stop once the receiver has settled away from them. Chain solves
     keep their full span: E4 integrates the noisy wave to its end. *)
  let base_config =
    {
      (solver_config engine scenario ~dt ~tstop) with
      Transient.settle_levels = threshold_levels scenario;
    }
  in
  let compute config () =
    let proc = scenario.Scenario.proc in
    let _, _, rcv_cell, load_cell = Scenario.chain_cells scenario in
    let ckt = Circuit.create () in
    let vdd = Device.Cell.attach_supply proc ckt in
    let pin = Circuit.node ckt "pin" in
    let rcv = Circuit.node ckt "rcv" in
    let buf = Circuit.node ckt "buf" in
    Device.Cell.instantiate proc rcv_cell ~ckt ~input:pin ~output:rcv
      ~vdd_node:vdd ~name:"u16";
    Device.Cell.instantiate proc load_cell ~ckt ~input:rcv ~output:buf
      ~vdd_node:vdd ~name:"u64";
    Circuit.vsource ckt pin input;
    let res = Transient.run ~config ckt in
    [ Transient.probe res "rcv" ]
  in
  let cache = Runtime.Engine.cache engine in
  let key_of config =
    Runtime.Cache.Key.(
      make "injection.receiver_response"
        [
          str (Scenario.fingerprint scenario);
          str (Source.fingerprint input);
          str (Transient.config_fingerprint config);
        ])
  in
  let deadline_ms = Runtime.Engine.deadline_ms engine in
  let attempt config =
    Runtime.Pool.with_deadline ?ms:deadline_ms (fun () ->
        memo_waves cache (key_of config) (compute config))
  in
  let policy = Runtime.Engine.resilience engine in
  let proc = scenario.Scenario.proc in
  let validate waves =
    let labeled =
      match waves with
      | [ w ] -> [ ("receiver response", w) ]
      | _ -> assert false
    in
    (* No required crossing here: the stimulus may be a degenerate
       technique ramp that legitimately never switches the receiver —
       a technique failure, not a solver failure. *)
    Runtime.Resilience.validate_waves policy
      ~rails:(0.0, proc.Device.Process.vdd)
      labeled
  in
  match
    Runtime.Resilience.run ~validate
      ~on_reject:(reject_cached cache key_of)
      policy ~config:base_config ~attempt
  with
  | Ok [ w ] -> w
  | Ok _ -> assert false
  | Error f -> Runtime.Failure.fail f

let ctx_of_runs ?samples scenario ~noiseless ~noisy =
  let proc = scenario.Scenario.proc in
  Eqwave.Technique.make_ctx ?samples
    ~th:(Device.Process.thresholds proc)
    ~noisy_in:noisy.far ~noiseless_in:noiseless.far
    ~noiseless_out:noiseless.rcv ()
