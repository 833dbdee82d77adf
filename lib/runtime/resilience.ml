type rung = {
  rung_name : string;
  transform : Spice.Transient.config -> Spice.Transient.config;
}

type policy = {
  name : string;
  max_attempts : int;
  rungs : rung list;
  check_finite : bool;
  rail_tol : float option;
}

let rung rung_name transform = { rung_name; transform }

(* Ladder rungs, all derived from the *base* config of the failed
   attempt, never from max_newton (tests rely on a zero-Newton engine
   staying broken through the whole ladder):
   - "tighten": stay in the current mode but work harder — quarter the
     LTE tolerance and halve dt_max (adaptive), or halve dt (fixed).
   - "reference": drop to the fixed historical grid at the base dt.
   - "reference-dt/2": fixed grid at half the base dt. *)
let tighten c =
  let open Spice.Transient in
  match c.step_control with
  | Adaptive a ->
      with_adaptive ~lte_tol:(a.lte_tol /. 4.0)
        ~dt_max:(Float.max a.dt_min (a.dt_max /. 2.0))
        c
  | Fixed -> with_dt c (c.dt /. 2.0)

let fixed_grid c = Spice.Transient.with_step_control c Spice.Transient.Fixed

let fixed_half c =
  let c = fixed_grid c in
  Spice.Transient.with_dt c (c.dt /. 2.0)

let standard_rungs =
  [
    rung "tighten" tighten;
    rung "reference" fixed_grid;
    rung "reference-dt/2" fixed_half;
  ]

let standard =
  {
    name = "standard";
    max_attempts = 4;
    rungs = standard_rungs;
    check_finite = true;
    rail_tol = Some 0.5;
  }

let disabled =
  {
    name = "none";
    max_attempts = 1;
    rungs = [];
    check_finite = false;
    rail_tol = None;
  }

let policies = [ standard; disabled ]
let names = List.map (fun p -> p.name) policies

let of_name s =
  match List.find_opt (fun p -> p.name = s) policies with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Resilience.of_name: unknown policy %S (have: %s)" s
           (String.concat ", " names))

let with_max_attempts p n = { p with max_attempts = Int.max 1 n }

let fingerprint p =
  String.concat "|"
    ([
       "resilience.policy";
       p.name;
       string_of_int p.max_attempts;
       (if p.check_finite then "finite" else "nofinite");
       (match p.rail_tol with
       | Some tol -> Printf.sprintf "rail:%h" tol
       | None -> "norail");
     ]
    @ List.map (fun r -> r.rung_name) p.rungs)

module Stats = struct
  type snapshot = {
    solves : int;
    attempts : int;
    retries : int;
    recoveries : int;
    failures : int;
    rejected_waveforms : int;
  }

  (* Process-global, like [Spice.Transient.Stats]: pool domains running
     concurrent ladders account into the same counters. *)
  let solves = Atomic.make 0
  let attempts = Atomic.make 0
  let retries = Atomic.make 0
  let recoveries = Atomic.make 0
  let failures = Atomic.make 0
  let rejected_waveforms = Atomic.make 0

  let snapshot () =
    {
      solves = Atomic.get solves;
      attempts = Atomic.get attempts;
      retries = Atomic.get retries;
      recoveries = Atomic.get recoveries;
      failures = Atomic.get failures;
      rejected_waveforms = Atomic.get rejected_waveforms;
    }

  let diff a b =
    {
      solves = a.solves - b.solves;
      attempts = a.attempts - b.attempts;
      retries = a.retries - b.retries;
      recoveries = a.recoveries - b.recoveries;
      failures = a.failures - b.failures;
      rejected_waveforms = a.rejected_waveforms - b.rejected_waveforms;
    }

  let pp ppf s =
    Format.fprintf ppf
      "%d supervised solves, %d attempts (%d retries), %d recoveries, %d \
       failures, %d rejected waveforms"
      s.solves s.attempts s.retries s.recoveries s.failures
      s.rejected_waveforms
end

let validate_waves policy ?rails ?crossing labeled =
  let check (what, w) =
    let vals = Waveform.Wave.values w in
    let non_finite =
      policy.check_finite
      && Array.exists (fun v -> not (Float.is_finite v)) vals
    in
    if non_finite then Some (Failure.Non_finite { what })
    else
      let rail_viol =
        match (rails, policy.rail_tol) with
        | Some (lo, hi), Some frac ->
            let tol = frac *. (hi -. lo) in
            Array.fold_left
              (fun acc v ->
                match acc with
                | Some _ -> acc
                | None ->
                    if v < lo -. tol || v > hi +. tol then Some v else None)
              None vals
        | _ -> None
      in
      match rail_viol with
      | Some v ->
          let lo, hi = Option.get rails in
          Some (Failure.Rail_bound { what; v; lo; hi })
      | None -> (
          match crossing with
          | Some level when Waveform.Wave.last_crossing w level = None ->
              Some (Failure.Missing_crossing { what; level })
          | _ -> None)
  in
  List.find_map check labeled

let run ?(validate = fun _ -> None) ?(on_reject = fun _ -> ()) policy ~config
    ~attempt =
  Atomic.incr Stats.solves;
  let configs =
    config :: List.map (fun r -> r.transform config) policy.rungs
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  let configs = take (Int.max 1 policy.max_attempts) configs in
  let rec go ~recovering last = function
    | [] ->
        Atomic.incr Stats.failures;
        Error (Option.get last)
    | cfg :: rest -> (
        Atomic.incr Stats.attempts;
        if recovering then Atomic.incr Stats.retries;
        match attempt cfg with
        | exception e -> (
            match Failure.of_exn e with
            | Some f when Failure.is_recoverable f ->
                go ~recovering:true (Some f) rest
            | Some f ->
                (* Typed but unrecoverable: no rung can fix it. *)
                Atomic.incr Stats.failures;
                Error f
            | None -> raise e)
        | v -> (
            match validate v with
            | None ->
                if recovering then Atomic.incr Stats.recoveries;
                Ok v
            | Some f ->
                Atomic.incr Stats.rejected_waveforms;
                on_reject cfg;
                go ~recovering:true (Some f) rest))
  in
  go ~recovering:false None configs
