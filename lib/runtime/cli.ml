(* Shared cmdliner vocabulary for every front-end (bin/sta_main,
   bin/sta_serve, bench/main): one definition of the evaluation-runtime
   flags, one assembly of the resulting Engine.t. The term produces a
   transparent [spec] first so callers that report their configuration
   (the bench --json output) can echo the raw values, then
   [engine_of_spec] folds it into the engine. *)

open Cmdliner

type spec = {
  engine_name : string;
  ltetol : float option;
  jobs : int;
  batch : int option;
  use_cache : bool;
  cache_dir : string option;
  fallback : string;
  retries : int option;
  deadline_ms : float option;
  guard : bool;
  guard_every : int;
  guard_tol_ps : float;
  fault : Spice.Transient.Fault.kind Faultplan.plan option;
  cache_fault : unit Faultplan.plan option;
  prune_tol_ps : float;
  cache_max_mb : int option;
}

type sweep = {
  metrics : bool;
  checkpoint_dir : string option;
  ladder : string list option;
}

let engine_conv =
  Arg.conv
    ( (fun s ->
        match Engine.of_name s with
        | (_ : Engine.t) -> Ok s
        | exception Invalid_argument msg -> Error (`Msg msg)),
      Format.pp_print_string )

let int_at_least lo =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf "invalid value %S, expected an integer >= %d"
                    s lo))),
      Format.pp_print_int )

let fault_conv injector =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun m -> `Msg m) (Faultplan.of_string injector s)),
      fun ppf _ -> Format.pp_print_string ppf "<fault-plan>" )

let spec_term ?(default_engine = "reference") ?default_cache_dir () =
  let engine =
    Arg.(value & opt engine_conv default_engine
         & info [ "engine" ] ~docv:"NAME"
             ~doc:"Solver engine preset: $(b,reference) (fixed 1 ps \
                   grid, the bit-exact regression baseline), \
                   $(b,accurate) or $(b,fast) (LTE-controlled adaptive \
                   time stepping, several-fold fewer steps at \
                   sub-0.01 ps gate-delay drift).")
  in
  let ltetol =
    let c =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some x when x > 0.0 && Float.is_finite x -> Ok x
            | _ -> Error (`Msg "expected a positive float (volts)")),
          fun ppf x -> Format.fprintf ppf "%g" x )
    in
    Arg.(value & opt (some c) None
         & info [ "ltetol" ] ~docv:"VOLTS"
             ~doc:"Adaptive local-truncation-error tolerance; implies \
                   adaptive stepping on top of the selected engine.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the simulation sweeps. 1 runs \
                   sequentially; higher values fan the independent \
                   simulations out over OCaml domains with results \
                   identical to the sequential run.")
  in
  let batch =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "batch" ] ~docv:"N"
             ~doc:"Batch width: cases per group of the Table-1 \
                   sweep's pre-solve pass (and the pool chunk of a \
                   batch submission). 1 skips the pre-solve pass; the \
                   default is the engine's width (16). Answers do not \
                   depend on it.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the content-keyed simulation memo cache.")
  in
  let cache_dir =
    Arg.(value & opt (some string) default_cache_dir
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist the simulation cache in $(docv) so repeated \
                   invocations skip already-simulated cases.")
  in
  let policy_conv =
    Arg.conv
      ( (fun s ->
          match Resilience.of_name s with
          | (_ : Resilience.policy) -> Ok s
          | exception Invalid_argument msg -> Error (`Msg msg)),
        Format.pp_print_string )
  in
  let fallback =
    Arg.(value & opt policy_conv "standard"
         & info [ "fallback" ] ~docv:"POLICY"
             ~doc:"Solver supervision policy: $(b,standard) retries a \
                   failed or invalid solve down an escalating ladder \
                   (tightened stepping, then the fixed reference grid); \
                   $(b,none) disables supervision.")
  in
  let retries =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "retries" ] ~docv:"N"
             ~doc:"Resilience attempt budget: total solve attempts \
                   including the first (overrides the policy default).")
  in
  let deadline =
    let c =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some ms when ms > 0.0 && Float.is_finite ms -> Ok ms
            | _ -> Error (`Msg "expected positive milliseconds")),
          fun ppf x -> Format.fprintf ppf "%g" x )
    in
    Arg.(value & opt (some c) None
         & info [ "deadline" ] ~docv:"MS"
             ~doc:"Per-solve wall-clock budget in milliseconds. A solve \
                   exceeding it is cancelled cooperatively at a step \
                   boundary and surfaces as a typed deadline_exceeded \
                   failure on that case instead of hanging the sweep.")
  in
  let guard =
    Arg.(value & flag
         & info [ "guard" ]
             ~doc:"Enable the differential accuracy guard: a \
                   deterministic sample of sweep cases is re-evaluated \
                   under the $(b,reference) engine preset and delay \
                   disagreements beyond the tolerance are counted in \
                   the metrics report.")
  in
  let guard_every =
    Arg.(value & opt (int_at_least 1) 8
         & info [ "guard-every" ] ~docv:"N"
             ~doc:"Guard sampling stride (1 = every case).")
  in
  let guard_tol_ps =
    let c =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some x when Float.is_finite x -> Ok x
            | _ -> Error (`Msg "expected a float (picoseconds)")),
          fun ppf x -> Format.fprintf ppf "%g" x )
    in
    Arg.(value & opt c 1.0
         & info [ "guard-tol-ps" ] ~docv:"PS"
             ~doc:"Guard delay tolerance in picoseconds.")
  in
  let inject =
    let c = fault_conv Spice.Transient.Fault.injector in
    Arg.(value & opt (some c) None
         & info [ "inject-faults" ] ~docv:"SPEC"
             ~doc:"Deterministic solver fault injection for resilience \
                   testing: $(b,nth:N) (the Nth solve) or \
                   $(b,RATE[@SEED]) (seeded fraction); prefix \
                   $(b,nan:) to corrupt the waveform instead of \
                   diverging, $(b,slow:) to stall the solve. \
                   Examples: 0.1@7, nth:3, nan:0.05, slow:nth:5.")
  in
  let inject_cache =
    let c = fault_conv Cache.faults in
    Arg.(value & opt (some c) None
         & info [ "inject-cache-faults" ] ~docv:"SPEC"
             ~doc:"Deterministic disk-cache fault injection for chaos \
                   testing the circuit breaker: $(b,nth:N) (the Nth \
                   disk op) or $(b,RATE[@SEED]) (seeded fraction of \
                   disk ops). Examples: 0.5, nth:3, 0.8@13.")
  in
  let prune_tol =
    let c =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some x when x >= 0.0 && Float.is_finite x -> Ok x
            | _ -> Error (`Msg "expected a non-negative float (picoseconds)")),
          fun ppf x -> Format.fprintf ppf "%g" x )
    in
    Arg.(value & opt c 0.0
         & info [ "prune-tol-ps" ] ~docv:"PS"
             ~doc:"Alignment-sweep branch-and-bound coverage slack in \
                   picoseconds: brackets of the alignment window whose \
                   delay upper bound exceeds the incumbent by no more \
                   than $(docv) are pruned unsolved, so the found \
                   worst case trails the true one by at most $(docv). \
                   0 (the default) keeps the exhaustive, \
                   byte-identical sweep.")
  in
  let cache_max_mb =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "cache-max-mb" ] ~docv:"MB"
             ~doc:"Cap the on-disk cache at $(docv) MiB: when a write \
                   pushes the directory past the cap, entries are \
                   LRU-evicted (oldest first) down to 90% of it.")
  in
  let make engine_name ltetol jobs batch no_cache cache_dir fallback retries
      deadline_ms guard guard_every guard_tol_ps fault cache_fault
      prune_tol_ps cache_max_mb =
    {
      engine_name;
      ltetol;
      jobs = Int.max 1 jobs;
      batch;
      use_cache = not no_cache;
      cache_dir;
      fallback;
      retries;
      deadline_ms;
      guard;
      guard_every;
      guard_tol_ps;
      fault;
      cache_fault;
      prune_tol_ps;
      cache_max_mb;
    }
  in
  Term.(
    const make $ engine $ ltetol $ jobs $ batch $ no_cache $ cache_dir
    $ fallback $ retries $ deadline $ guard $ guard_every $ guard_tol_ps
    $ inject $ inject_cache $ prune_tol $ cache_max_mb)

let sweep_term () =
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print runtime metrics (simulation counts, Newton \
                   iterations, cache hits, wall time) after the run.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Journal completed sweep cases under $(docv); an \
                   interrupted sweep resumes from the journal with \
                   byte-identical results.")
  in
  let ladder =
    let c =
      Arg.conv
        ( (fun s ->
            let names =
              String.split_on_char ',' s |> List.map String.trim
              |> List.filter (fun n -> n <> "")
            in
            if names = [] then Error (`Msg "expected technique names")
            else Ok names),
          fun ppf names ->
            Format.pp_print_string ppf (String.concat "," names) )
    in
    Arg.(value & opt (some c) None
         & info [ "ladder" ] ~docv:"NAMES"
             ~doc:"Comma-separated technique names for the Gamma_eff \
                   degradation ladder, tried in order until one \
                   accepts (default SGDP,WLS5,LSF3,E4,P1). Example: \
                   $(b,SGDP,LSF3,P1).")
  in
  let make metrics checkpoint_dir ladder = { metrics; checkpoint_dir; ladder } in
  Term.(const make $ metrics $ checkpoint $ ladder)

let policy_of_spec s =
  let p = Resilience.of_name s.fallback in
  match s.retries with
  | Some n -> Resilience.with_max_attempts p n
  | None -> p

let engine_of_spec s =
  let e = Engine.of_name s.engine_name in
  let e =
    match s.ltetol with
    | Some tol ->
        Engine.map_solver e (fun c -> Spice.Transient.with_adaptive ~lte_tol:tol c)
    | None -> e
  in
  let e = Engine.with_resilience e (policy_of_spec s) in
  let e =
    match s.deadline_ms with Some ms -> Engine.with_deadline e ms | None -> e
  in
  let e =
    if s.guard then
      Engine.with_guard e
        (Guard.make ~every:s.guard_every ~tol_s:(s.guard_tol_ps *. 1e-12) ())
    else e
  in
  let e = match s.batch with Some b -> Engine.with_batch e b | None -> e in
  let e =
    if s.jobs > 1 then Engine.with_pool e (Pool.create ~jobs:s.jobs ()) else e
  in
  if s.use_cache then
    Engine.with_cache e
      (Cache.create ?disk_dir:s.cache_dir
         ?max_disk_bytes:
           (Option.map (fun mb -> mb * 1024 * 1024) s.cache_max_mb)
         ())
  else e

let arm_faults s =
  Option.iter (Faultplan.arm Spice.Transient.Fault.injector) s.fault;
  Option.iter (Faultplan.arm Cache.faults) s.cache_fault
