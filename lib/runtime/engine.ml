type t = {
  name : string;
  solver : Spice.Transient.config;
  pool : Pool.t option;
  cache : Cache.t option;
  metrics : Metrics.t option;
  resilience : Resilience.policy;
  deadline_ms : float option;
  guard : Guard.t option;
  batch : int;
}

let default_batch = 16

let make ?(name = "custom") ?(solver = Spice.Transient.default_config) ?pool
    ?cache ?metrics ?(resilience = Resilience.standard) ?deadline_ms ?guard
    ?(batch = default_batch) () =
  (match deadline_ms with
  | Some ms when (not (Float.is_finite ms)) || ms <= 0.0 ->
      invalid_arg "Engine.make: deadline_ms must be positive"
  | _ -> ());
  if batch < 1 then invalid_arg "Engine.make: batch must be >= 1";
  { name; solver; pool; cache; metrics; resilience; deadline_ms; guard; batch }

(* Presets share the Newton settings of [default_config] and only
   disagree about step control. [reference] is the historical fixed
   grid — byte-exact regression baseline. [accurate] tightens the LTE
   tolerance below the default; [fast] relaxes it and lets steps grow
   further on quiescent spans. Crossing levels are left empty here: the
   simulation harnesses fill in 0.1/0.5/0.9 x Vdd from the process
   thresholds via [Transient.with_crossing_levels_if_empty]. *)
let reference = make ~name:"reference" ()

let accurate =
  make ~name:"accurate"
    ~solver:
      (Spice.Transient.with_adaptive ~lte_tol:1e-4 ~dt_max:50e-12
         Spice.Transient.default_config)
    ()

let fast =
  make ~name:"fast"
    ~solver:
      (Spice.Transient.with_adaptive ~lte_tol:1e-3 ~dt_max:200e-12
         Spice.Transient.default_config)
    ()

let presets = [ reference; accurate; fast ]
let names = List.map (fun e -> e.name) presets

let of_name s =
  match List.find_opt (fun e -> e.name = s) presets with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Engine.of_name: unknown engine %S (have: %s)" s
           (String.concat ", " names))

let name t = t.name
let solver t = t.solver
let pool t = t.pool
let cache t = t.cache
let metrics t = t.metrics
let resilience t = t.resilience
let deadline_ms t = t.deadline_ms
let guard t = t.guard
let batch t = t.batch

let with_pool t pool = { t with pool = Some pool }
let with_cache t cache = { t with cache = Some cache }
let with_metrics t metrics = { t with metrics = Some metrics }
let with_resilience t resilience = { t with resilience }

let with_deadline t ms =
  if (not (Float.is_finite ms)) || ms <= 0.0 then
    invalid_arg "Engine.with_deadline: deadline must be positive";
  { t with deadline_ms = Some ms }

let with_guard t guard = { t with guard = Some guard }

let with_batch t batch =
  if batch < 1 then invalid_arg "Engine.with_batch: batch must be >= 1";
  { t with batch }

let map_solver t f = { t with solver = f t.solver }

let resolve = function Some e -> e | None -> reference

(* The single fan-out point for every harness: split [n] work items
   over the engine's pool (or run them inline without one). [?chunk]
   overrides the work-splitting granularity; the default lets the pool
   chunk by [batch]-sized slices. *)
let submit_batch ?chunk t n f =
  let chunk = match chunk with Some c -> c | None -> t.batch in
  Pool.maybe_map ~chunk t.pool n f

let is_adaptive t = Spice.Transient.is_adaptive t.solver
