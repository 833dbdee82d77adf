(* noisy-sta: command-line driver for the library.

   Subcommands:
     characterize  build NLDM tables for the inverter cells -> .lib file
     table1        reproduce the paper's Table 1
     figure2       dump the Figure-2 waveform series as CSV
     waveform      dump the noisy waveform of one injection case as CSV
     sta           run the STA engine on a demo chain, optionally with a
                   noisy pin, comparing techniques *)

open Cmdliner

let proc = Device.Process.c13

let scenario_of_string = function
  | "1" | "i" | "I" -> Ok Noise.Scenario.config_i
  | "2" | "ii" | "II" -> Ok Noise.Scenario.config_ii
  | s -> Error (`Msg ("unknown configuration: " ^ s))

let scenario_conv =
  Arg.conv
    ( (fun s -> scenario_of_string s),
      fun ppf scen -> Format.pp_print_string ppf scen.Noise.Scenario.name )

let technique_conv =
  Arg.conv
    ( (fun s ->
        match Eqwave.Registry.find s with
        | t -> Ok t
        | exception Not_found ->
            Error
              (`Msg
                (Printf.sprintf "unknown technique %s (have: %s)" s
                   (String.concat ", " Eqwave.Registry.names)))),
      fun ppf t -> Format.pp_print_string ppf t.Eqwave.Technique.name )

(* ------------------------------------------------------------------ *)
(* Shared evaluation-runtime options: every simulation-heavy
   subcommand takes the Runtime.Cli flag set (--engine/--jobs/
   --batch/--no-cache/--deadline/... plus the sweep flags), all folded
   into one Runtime.Engine value.                                      *)

type rt = {
  engine : Runtime.Engine.t;
  metrics : bool;
  checkpoint_dir : string option;
  ladder : Eqwave.Ladder.t option;
  prune_tol_ps : float;
}

let rt_term =
  let make spec (sweep : Runtime.Cli.sweep) =
    (* The ladder names are validated here rather than in Runtime.Cli:
       the runtime layer doesn't know the technique registry. *)
    match
      Option.map (fun ns -> Eqwave.Ladder.of_names ns) sweep.Runtime.Cli.ladder
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | ladder ->
        Runtime.Cli.arm_faults spec;
        `Ok
          {
            engine = Runtime.Cli.engine_of_spec spec;
            metrics = sweep.Runtime.Cli.metrics;
            checkpoint_dir = sweep.Runtime.Cli.checkpoint_dir;
            ladder;
            prune_tol_ps = spec.Runtime.Cli.prune_tol_ps;
          }
  in
  Term.(
    ret (const make $ Runtime.Cli.spec_term () $ Runtime.Cli.sweep_term ()))

(* Run a subcommand body under the runtime options: time it, then
   report metrics and release the pool. *)
let with_rt rt f =
  let before = Spice.Transient.Stats.snapshot () in
  let before_res = Runtime.Resilience.Stats.snapshot () in
  let before_guard = Runtime.Guard.Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      match Runtime.Engine.pool rt.engine with
      | Some p -> Runtime.Pool.shutdown p
      | None -> ())
    (fun () ->
      f ();
      if rt.metrics then begin
        let m = Runtime.Metrics.create () in
        Runtime.Metrics.add_time m "wall" (Unix.gettimeofday () -. t0);
        (match Runtime.Engine.pool rt.engine with
        | Some p -> Runtime.Metrics.set m "pool.jobs" (Runtime.Pool.jobs p)
        | None -> Runtime.Metrics.set m "pool.jobs" 1);
        Runtime.Metrics.capture_spice ~since:before m;
        Runtime.Metrics.capture_resilience ~since:before_res m;
        Runtime.Metrics.capture_guard ~since:before_guard m;
        (match Runtime.Engine.cache rt.engine with
        | Some c -> Runtime.Metrics.capture_cache m c
        | None -> ());
        Format.printf "@.%a@." Runtime.Metrics.pp_report m
      end)

(* ------------------------------------------------------------------ *)

let characterize_cmd =
  let out =
    Arg.(value & opt string "noisy_sta.lib"
         & info [ "o"; "output" ] ~doc:"Output library file.")
  in
  let run out rt =
    with_rt rt (fun () ->
        let cells = Device.Cell.[ inv_x1; inv_x4; inv_x16; inv_x64 ] in
        let timed =
          List.map
            (fun cell ->
              Printf.printf "characterizing %s...\n%!" cell.Device.Cell.name;
              Liberty.Characterize.run ~engine:rt.engine proc cell)
            cells
        in
        Liberty.Libfile.save out timed;
        Printf.printf "wrote %s (%d cells)\n" out (List.length timed))
  in
  Cmd.v (Cmd.info "characterize" ~doc:"Build NLDM tables for the cell library")
    Term.(const run $ out $ rt_term)

let table1_cmd =
  let cases =
    Arg.(value & opt (Runtime.Cli.int_at_least 1) 200
         & info [ "cases" ] ~doc:"Alignment cases per configuration.")
  in
  let config =
    Arg.(value & opt_all scenario_conv
           [ Noise.Scenario.config_i; Noise.Scenario.config_ii ]
         & info [ "config" ] ~doc:"Configuration (1 or 2); repeatable.")
  in
  let samples =
    Arg.(value & opt (Runtime.Cli.int_at_least 4) 35
         & info [ "P"; "samples" ] ~doc:"Sampling points P (at least 4).")
  in
  let run cases configs samples rt =
    with_rt rt (fun () ->
        List.iter
          (fun scen ->
            let scen = Noise.Scenario.with_cases scen cases in
            let table =
              Noise.Eval.run_table ~samples ~engine:rt.engine
                ?ladder:rt.ladder ?checkpoint_dir:rt.checkpoint_dir
                ~prune_tol_ps:rt.prune_tol_ps
                ~progress:(fun k n ->
                  if k mod 20 = 0 then Printf.eprintf "%d/%d\r%!" k n)
                scen
            in
            Format.printf "%a@." Noise.Eval.pp_table table;
            match table.Noise.Eval.prune with
            | Some s -> Format.printf "%a@." Noise.Alignment.pp_stats s
            | None -> ())
          configs)
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1 (accuracy comparison)")
    Term.(const run $ cases $ config $ samples $ rt_term)

let figure2_cmd =
  let out =
    Arg.(value & opt string "figure2.csv" & info [ "o" ] ~doc:"Output CSV.")
  in
  let tau_ps =
    Arg.(value & opt float 1200.0 & info [ "tau" ] ~doc:"Aggressor start, ps.")
  in
  let run out tau_ps =
    let scen = Noise.Scenario.config_i in
    let tau = tau_ps *. 1e-12 in
    let noiseless = Noise.Injection.noiseless scen in
    let noisy = Noise.Injection.noisy scen ~tau in
    let ctx = Noise.Injection.ctx_of_runs scen ~noiseless ~noisy in
    let sens = Eqwave.Sensitivity.compute ctx in
    let gamma = Eqwave.Sgdp.sgdp.Eqwave.Technique.run ctx in
    let v_out_eff =
      Noise.Injection.receiver_response scen
        ~input:(Spice.Source.of_ramp gamma) ~tstop:scen.Noise.Scenario.tstop
    in
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        output_string oc
          "t,v_nl_in,v_nl_out,rho,v_noisy,gamma_eff,rho_eff,v_out_eff,v_out_ref\n";
        let a, b = Eqwave.Technique.noisy_critical_region ctx in
        let t0 = a -. 150e-12 and t1 = b +. 200e-12 in
        let n = 400 in
        let ts =
          Array.init n (fun i ->
              t0 +. ((t1 -. t0) *. float_of_int i /. float_of_int (n - 1)))
        in
        let rho_eff, _ = Eqwave.Sgdp.rho_eff sens ctx ts in
        Array.iteri
          (fun i t ->
            Printf.fprintf oc "%.5e,%.5f,%.5f,%.5f,%.5f,%.5f,%.5f,%.5f,%.5f\n" t
              (Waveform.Wave.value_at ctx.Eqwave.Technique.noiseless_in t)
              (Waveform.Wave.value_at ctx.Eqwave.Technique.noiseless_out t)
              (Eqwave.Sensitivity.rho_at_time sens t)
              (Waveform.Wave.value_at ctx.Eqwave.Technique.noisy_in t)
              (Waveform.Ramp.value_at gamma t)
              rho_eff.(i)
              (Waveform.Wave.value_at v_out_eff t)
              (Waveform.Wave.value_at noisy.Noise.Injection.rcv t))
          ts);
    Printf.printf "wrote %s\n" out
  in
  Cmd.v (Cmd.info "figure2" ~doc:"Dump the Figure-2 waveform series as CSV")
    Term.(const run $ out $ tau_ps)

let waveform_cmd =
  let tau_ps =
    Arg.(value & opt float 1200.0 & info [ "tau" ] ~doc:"Aggressor start, ps.")
  in
  let config =
    Arg.(value & opt scenario_conv Noise.Scenario.config_i
         & info [ "config" ] ~doc:"Configuration (1 or 2).")
  in
  let run tau_ps scen =
    let noisy = Noise.Injection.noisy scen ~tau:(tau_ps *. 1e-12) in
    print_string (Waveform.Wave.to_csv noisy.Noise.Injection.far)
  in
  Cmd.v
    (Cmd.info "waveform"
       ~doc:"Print the noisy receiver-input waveform of one case as CSV")
    Term.(const run $ tau_ps $ config)

let sta_cmd =
  let technique =
    Arg.(value & opt technique_conv Eqwave.Sgdp.sgdp
         & info [ "technique" ] ~doc:"Noisy-pin reduction technique.")
  in
  let lib_file =
    Arg.(value & opt (some string) None
         & info [ "lib" ] ~doc:"NLDM library file (from `characterize`); \
                                characterizes on the fly when omitted.")
  in
  let netlist_file =
    Arg.(value & opt (some string) None
         & info [ "netlist" ] ~doc:"Gate-level netlist file (see \
                                    Sta.Netlist_io for the format); a \
                                    built-in demo chain when omitted.")
  in
  let run technique lib_file netlist_file rt =
    with_rt rt @@ fun () ->
    let library =
      match lib_file with
      | Some path -> Liberty.Libfile.load path
      | None ->
          Printf.printf "characterizing cells (pass --lib to skip)...\n%!";
          List.map
            (Liberty.Characterize.run ~engine:rt.engine proc)
            Device.Cell.[ inv_x1; inv_x4; inv_x16; inv_x64 ]
    in
    let n =
      match netlist_file with
      | Some path -> Sta.Netlist_io.load path
      | None ->
          let n = Sta.Netlist.create () in
          Sta.Netlist.input n "in";
          Sta.Netlist.gate n ~cell:"INVx1" ~name:"u1" ~input:"in" ~output:"n1";
          Sta.Netlist.gate n ~cell:"INVx4" ~name:"u2" ~input:"n1" ~output:"n2";
          Sta.Netlist.set_load n "n2"
            (Sta.Netlist.Line Noise.Scenario.config_i.Noise.Scenario.line);
          Sta.Netlist.gate n ~cell:"INVx16" ~name:"u3" ~input:"n2" ~output:"n3";
          Sta.Netlist.gate n ~cell:"INVx64" ~name:"u4" ~input:"n3" ~output:"out";
          Sta.Netlist.output n "out";
          n
    in
    let first_input =
      match Sta.Netlist.inputs n with
      | i :: _ -> i
      | [] -> failwith "netlist has no primary inputs"
    in
    let noisy_net =
      (* The demo injects on "n2"; for user netlists pick the first net
         with a line load, if any. *)
      match
        List.find_opt
          (fun net ->
            match Sta.Netlist.load_of n net with
            | Some (Sta.Netlist.Line _) -> true
            | _ -> false)
          (Sta.Netlist.nets n)
      with
      | Some net -> net
      | None -> first_input
    in
    let cfg = Sta.Propagate.config ~technique library in
    let stim =
      {
        Sta.Propagate.arrival = 100e-12;
        slew = 150e-12;
        dir = Waveform.Wave.Rising;
      }
    in
    Printf.printf "\nnominal STA (technique %s not engaged):\n"
      technique.Eqwave.Technique.name;
    let stimuli = List.map (fun i -> (i, stim)) (Sta.Netlist.inputs n) in
    let nominal = Sta.Propagate.run cfg n ~stimuli in
    Format.printf "%a@." Sta.Propagate.pp_result nominal;
    (* Inject a crosstalk waveform on n2 (the line's far end) from the
       Figure-1 scenario, time-aligned to the nominal arrival there. *)
    let scen = Noise.Scenario.config_i in
    let noisy =
      Noise.Injection.noisy scen
        ~tau:(scen.Noise.Scenario.victim_t0 +. 0.05e-9)
    in
    let at_n2 =
      (List.assoc noisy_net nominal.Sta.Propagate.timings).Sta.Propagate.at
    in
    let th = Device.Process.thresholds proc in
    let wave_arrival =
      match Waveform.Wave.arrival noisy.Noise.Injection.far th with
      | Some t -> t
      | None -> failwith "injected waveform has no arrival"
    in
    let wave = Waveform.Wave.shift noisy.Noise.Injection.far (at_n2 -. wave_arrival) in
    Printf.printf "noise-aware STA (noisy pin %s, technique %s):\n"
      noisy_net technique.Eqwave.Technique.name;
    let noisy_run =
      Sta.Propagate.run ~noisy_pins:[ (noisy_net, wave) ] cfg n ~stimuli
    in
    Format.printf "%a@." Sta.Propagate.pp_result noisy_run;
    match
      (nominal.Sta.Propagate.worst_output, noisy_run.Sta.Propagate.worst_output)
    with
    | Some (_, a), Some (_, b) ->
        Printf.printf "noise shifts the worst arrival by %+.1f ps\n"
          ((b.Sta.Propagate.at -. a.Sta.Propagate.at) *. 1e12)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "sta" ~doc:"Run the STA engine on a demo chain with a noisy pin")
    Term.(const run $ technique $ lib_file $ netlist_file $ rt_term)

let montecarlo_cmd =
  let samples =
    Arg.(value & opt (Runtime.Cli.int_at_least 1) 50
         & info [ "samples" ] ~doc:"Random cases to draw.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let config =
    Arg.(value & opt scenario_conv Noise.Scenario.config_i
         & info [ "config" ] ~doc:"Configuration (1 or 2).")
  in
  let run samples seed scen rt =
    with_rt rt (fun () ->
        let draws, summaries =
          Noise.Montecarlo.run ~seed ~samples ~engine:rt.engine
            ?ladder:rt.ladder ?checkpoint_dir:rt.checkpoint_dir
            ~prune_tol_ps:rt.prune_tol_ps scen
        in
        Printf.printf "%s, %d random alignment/polarity samples (seed %d):\n"
          scen.Noise.Scenario.name samples seed;
        Format.printf "%a@." Noise.Montecarlo.pp_summary summaries;
        let pruned =
          List.length
            (List.filter (fun s -> s.Noise.Montecarlo.pruned) draws)
        in
        if pruned > 0 then
          Printf.printf "%d/%d draws pruned (no critical-window overlap)\n"
            pruned samples)
  in
  Cmd.v
    (Cmd.info "montecarlo"
       ~doc:"Randomized noise-injection error percentiles per technique")
    Term.(const run $ samples $ seed $ config $ rt_term)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "noisy-sta" ~version:"1.0.0"
             ~doc:"Noisy-waveform propagation for static timing analysis")
          [
            characterize_cmd;
            table1_cmd;
            figure2_cmd;
            waveform_cmd;
            sta_cmd;
            montecarlo_cmd;
          ]))
