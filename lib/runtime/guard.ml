(* Differential accuracy guard: cross-validate a deterministic, seeded
   sample of fast-engine results against the reference preset so silent
   accuracy drift becomes an observable signal instead of a surprise.
   Selection depends only on (seed, case index), never on pool
   scheduling, so the same cases are guarded on every run — including
   across a checkpoint resume. *)

type t = { every : int; seed : int; tol_s : float }

let make ?(every = 8) ?(seed = 0) ?(tol_s = 1e-12) () =
  if every < 1 then invalid_arg "Guard.make: every < 1";
  if not (Float.is_finite tol_s) then invalid_arg "Guard.make: non-finite tol";
  { every; seed; tol_s }

let fingerprint t =
  Printf.sprintf "runtime.guard|%d|%d|%h" t.every t.seed t.tol_s

(* Hash the (seed, index) pair with the fault injectors' seeded draw so
   roughly 1/every of the cases are guarded, spread uniformly rather
   than striding (a stride would always miss workloads whose
   interesting cases share a residue). *)
let selects t i =
  t.every = 1
  || Faultplan.bits ~salt:"runtime.guard" ~seed:t.seed i mod t.every = 0

module Stats = struct
  type snapshot = {
    checked : int;
    agreements : int;
    disagreements : int;
    errors : int;
    max_delta_s : float;
  }

  (* Process-global, atomic, like Transient.Stats and Resilience.Stats. *)
  let checked = Atomic.make 0
  let agreements = Atomic.make 0
  let disagreements = Atomic.make 0
  let errors = Atomic.make 0
  let max_delta = Atomic.make 0.0

  let rec bump_max v =
    let cur = Atomic.get max_delta in
    if v > cur && not (Atomic.compare_and_set max_delta cur v) then bump_max v

  let snapshot () =
    {
      checked = Atomic.get checked;
      agreements = Atomic.get agreements;
      disagreements = Atomic.get disagreements;
      errors = Atomic.get errors;
      max_delta_s = Atomic.get max_delta;
    }

  (* max_delta_s is a high-water mark, not a counter — diff keeps the
     current mark rather than subtracting. *)
  let diff a b =
    {
      checked = a.checked - b.checked;
      agreements = a.agreements - b.agreements;
      disagreements = a.disagreements - b.disagreements;
      errors = a.errors - b.errors;
      max_delta_s = a.max_delta_s;
    }
end

let record t ~delta_s =
  Atomic.incr Stats.checked;
  let mag = abs_float delta_s in
  Stats.bump_max mag;
  let agree = mag <= t.tol_s in
  if agree then Atomic.incr Stats.agreements
  else Atomic.incr Stats.disagreements;
  agree

let record_error () = Atomic.incr Stats.errors
