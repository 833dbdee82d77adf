type integration = Trapezoidal | Backward_euler

type adaptive = {
  lte_tol : float;
  dt_min : float;
  dt_max : float;
  grow_limit : float;
  safety : float;
  crossing_levels : float list;
  crossing_dt : float;
}

type step_control = Fixed | Adaptive of adaptive

type config = {
  dt : float;
  tstop : float;
  tstart : float;
  max_newton : int;
  step_control : step_control;
  max_steps : int;
  jac_reuse : bool;
  settle_levels : float list;
}

(* Solver constants. Every step integrates with the trapezoidal
   companion; backward Euler is only the adaptive controller's LTE
   shadow. *)
let newton_tol_v = 1e-7 (* voltage update convergence bound, V *)
let newton_tol_i = 1e-9 (* KCL residual convergence bound, A *)
let vstep_limit = 0.6 (* per-iteration voltage update clamp, V *)
let gmin = 1e-12 (* conductance to ground on every node, S *)
let max_bisection = 10 (* step-halving depth on Newton failure *)

(* The settle stop ([settle_levels] non-empty): a run ends at the
   first accepted step after a calm span worth [settle_steps] grid
   steps, in which every node moved less than [settle_slope] V per ps
   of step, once every source is quiet (a recorded wave: within
   [settle_delta] V of its final value) and every node lies at least
   [settle_margin] V from each settle level. A calm step of length h
   earns max(1, floor(h/dt)) grid steps, and the span holds at least
   [settle_min_steps] accepted steps: a fixed-grid step earns one, so
   the fixed grid counts steps, while adaptive steps that grow to
   [dt_max] still stop soon after the input settles. DESIGN §9 item 8
   argues why no crossing of a level can follow. *)
let settle_slope = 1e-5
let settle_steps = 10
let settle_min_steps = 2
let settle_margin = 0.05
let settle_delta = 1e-4

let default_adaptive =
  {
    lte_tol = 5e-4;
    dt_min = 10e-15;
    dt_max = 100e-12;
    grow_limit = 2.0;
    safety = 0.9;
    crossing_levels = [];
    crossing_dt = 0.0;
  }

let default_config =
  {
    dt = 1e-12;
    tstop = 4e-9;
    tstart = 0.0;
    max_newton = 60;
    step_control = Fixed;
    max_steps = 0;
    jac_reuse = true;
    settle_levels = [];
  }

let with_dt cfg dt = { cfg with dt }
let with_tstop cfg tstop = { cfg with tstop }
let with_step_control cfg step_control = { cfg with step_control }

let with_adaptive ?lte_tol ?dt_min ?dt_max ?grow_limit ?safety
    ?crossing_levels ?crossing_dt cfg =
  let base =
    match cfg.step_control with
    | Adaptive a -> a
    | Fixed -> default_adaptive
  in
  let v o d = Option.value o ~default:d in
  {
    cfg with
    step_control =
      Adaptive
        {
          lte_tol = v lte_tol base.lte_tol;
          dt_min = v dt_min base.dt_min;
          dt_max = v dt_max base.dt_max;
          grow_limit = v grow_limit base.grow_limit;
          safety = v safety base.safety;
          crossing_levels = v crossing_levels base.crossing_levels;
          crossing_dt = v crossing_dt base.crossing_dt;
        };
  }

let is_adaptive cfg =
  match cfg.step_control with Adaptive _ -> true | Fixed -> false

let with_crossing_levels_if_empty cfg levels =
  match cfg.step_control with
  | Fixed -> cfg
  | Adaptive a when a.crossing_levels = [] ->
      { cfg with step_control = Adaptive { a with crossing_levels = levels } }
  | Adaptive _ -> cfg

(* Exhaustive, lossless rendering of a config. Every field that can
   change a simulated waveform MUST appear here: [Runtime.Cache] keys
   are derived from this string, so a missed field would let a config
   change hit a stale cache entry. The full record destructure makes
   adding a field without updating this function a compile error. The
   solver constants (integrator, Newton tolerances, update clamp, gmin,
   bisection depth) and the linear kernel ("dense") are rendered too,
   each at a fixed place: a key changes exactly when the answers under
   it do. The settle levels and their four constants are appended only
   when the list is non-empty, so configs without them keep the keys
   they had before the stop existed. *)
let config_fingerprint cfg =
  let {
    dt;
    tstop;
    tstart;
    max_newton;
    step_control;
    max_steps;
    jac_reuse;
    settle_levels;
  } =
    cfg
  in
  let f = Printf.sprintf "%h" in
  let sc =
    match step_control with
    | Fixed -> "fixed"
    | Adaptive
        {
          lte_tol;
          dt_min;
          dt_max;
          grow_limit;
          safety;
          crossing_levels;
          crossing_dt;
        } ->
        String.concat ","
          ([
             "adaptive";
             f lte_tol;
             f dt_min;
             f dt_max;
             f grow_limit;
             f safety;
             f crossing_dt;
           ]
          @ List.map f crossing_levels)
  in
  (* Every fixed-grid step earns one calm credit, so the fixed grid
     stops where the step-counting rule did and keeps its key; only
     adaptive keys render [settle_min_steps]. *)
  let settle =
    match settle_levels with
    | [] -> []
    | levels ->
        [
          String.concat ","
            ("settle" :: f settle_slope :: string_of_int settle_steps
           :: f settle_margin :: f settle_delta :: List.map f levels);
        ]
        @
        match step_control with
        | Fixed -> []
        | Adaptive _ -> [ "calm-time," ^ string_of_int settle_min_steps ]
  in
  String.concat "|"
    ([
      "tran.config";
      f dt;
      f tstop;
      f tstart;
      "trap";
      f newton_tol_v;
      f newton_tol_i;
      string_of_int max_newton;
      f vstep_limit;
      f gmin;
      string_of_int max_bisection;
      string_of_int max_steps;
      "dense";
      (if jac_reuse then "reuse" else "noreuse");
      sc;
    ]
    @ settle)

exception No_convergence of float
exception Step_budget_exhausted of { at : float; budget : int }
exception Deadline_exceeded of { at : float; budget_ms : float }

module Stats = struct
  type snapshot = {
    sims : int;
    steps : int;
    skipped_steps : int;
    newton_iters : int;
    bisections : int;
    gmin_retries : int;
    rejected_steps : int;
    lte_rejections : int;
    injected_faults : int;
    deadline_hits : int;
    factorizations : int;
    jac_reuses : int;
    batched_solves : int;
    peeled_solves : int;
  }

  (* Process-global, updated with atomics so pool domains running
     concurrent simulations account correctly. *)
  let sims = Atomic.make 0
  let steps = Atomic.make 0
  let skipped_steps = Atomic.make 0
  let newton_iters = Atomic.make 0
  let bisections = Atomic.make 0
  let gmin_retries = Atomic.make 0
  let rejected_steps = Atomic.make 0
  let lte_rejections = Atomic.make 0
  let injected_faults = Atomic.make 0
  let deadline_hits = Atomic.make 0
  let factorizations = Atomic.make 0
  let jac_reuses = Atomic.make 0
  let batched_solves = Atomic.make 0

  let snapshot () =
    {
      sims = Atomic.get sims;
      steps = Atomic.get steps;
      skipped_steps = Atomic.get skipped_steps;
      newton_iters = Atomic.get newton_iters;
      bisections = Atomic.get bisections;
      gmin_retries = Atomic.get gmin_retries;
      rejected_steps = Atomic.get rejected_steps;
      lte_rejections = Atomic.get lte_rejections;
      injected_faults = Atomic.get injected_faults;
      deadline_hits = Atomic.get deadline_hits;
      factorizations = Atomic.get factorizations;
      jac_reuses = Atomic.get jac_reuses;
      batched_solves = Atomic.get batched_solves;
      peeled_solves = 0;
    }

  let diff a b =
    {
      sims = a.sims - b.sims;
      steps = a.steps - b.steps;
      skipped_steps = a.skipped_steps - b.skipped_steps;
      newton_iters = a.newton_iters - b.newton_iters;
      bisections = a.bisections - b.bisections;
      gmin_retries = a.gmin_retries - b.gmin_retries;
      rejected_steps = a.rejected_steps - b.rejected_steps;
      lte_rejections = a.lte_rejections - b.lte_rejections;
      injected_faults = a.injected_faults - b.injected_faults;
      deadline_hits = a.deadline_hits - b.deadline_hits;
      factorizations = a.factorizations - b.factorizations;
      jac_reuses = a.jac_reuses - b.jac_reuses;
      batched_solves = a.batched_solves - b.batched_solves;
      peeled_solves = a.peeled_solves - b.peeled_solves;
    }
end

(* Cooperative per-solve deadlines. A caller installs a wall-clock
   budget with [with_budget]; [run] then checks it at every accepted
   step boundary (and once up front) and raises [Deadline_exceeded]
   when it has expired. The token lives in domain-local storage, so a
   pool worker's budget never leaks into sibling domains, and checking
   is free when no budget is installed. *)
module Deadline = struct
  let key : (float * float) option Domain.DLS.key =
    (* (absolute expiry, epoch seconds; original budget, ms) *)
    Domain.DLS.new_key (fun () -> None)

  let with_budget ~ms f =
    if not (Float.is_finite ms) || ms <= 0.0 then
      invalid_arg "Transient.Deadline.with_budget: budget must be positive";
    let prev = Domain.DLS.get key in
    Domain.DLS.set key (Some (Unix.gettimeofday () +. (ms /. 1000.0), ms));
    Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

  (* Inlined, so a step's time reaches the raise unboxed. *)
  let[@inline] check ~at =
    match Domain.DLS.get key with
    | None -> ()
    | Some (expiry, budget_ms) ->
        if Unix.gettimeofday () > expiry then begin
          Atomic.incr Stats.deadline_hits;
          raise (Deadline_exceeded { at; budget_ms })
        end
end

(* Deterministic fault injection: tests, bench, and CI arm a plan on
   [injector] and every subsequent [run] rolls against it. Decisions
   depend only on the process-global solve index (and a seed), never on
   wall-clock or scheduling, so a given (plan, workload) pair injects
   the same faults on every run — including across a checkpoint
   resume. *)
module Fault = struct
  type kind = Diverge | Corrupt | Slow

  (* Stall injected per accepted step by [Slow] — long enough that any
     realistic deadline trips after a handful of steps, short enough
     that an unbounded faulted solve still finishes. *)
  let slow_step_s = 2e-4

  let injector =
    Faultplan.create ~salt:"tran.fault"
      ~kinds:[ ("nan", Corrupt); ("slow", Slow) ]
      ~default:(fun _ -> Diverge)
end

(* Compiled, array-based view of the circuit for fast stamping. *)
type compiled = {
  n : int;                                  (* node unknowns *)
  m : int;                                  (* vsource branch unknowns *)
  res : (int * int * float) array;          (* a, b, conductance *)
  caps : (int * int * float) array;
  vsrc : (int * Source.t) array;
  fets : (int * int * int * Circuit.mosfet_eval) array;
  name_index : (string, int) Hashtbl.t;
}

let compile ckt =
  let n = Circuit.num_nodes ckt in
  let res =
    Circuit.resistors ckt
    |> List.map (fun ((a : Circuit.node), (b : Circuit.node), r) ->
           ((a :> int), (b :> int), 1.0 /. r))
    |> Array.of_list
  in
  let caps =
    Circuit.capacitors ckt
    |> List.map (fun ((a : Circuit.node), (b : Circuit.node), c) ->
           ((a :> int), (b :> int), c))
    |> Array.of_list
  in
  let vsrc =
    Circuit.vsources ckt
    |> List.map (fun ((nd : Circuit.node), s) -> ((nd :> int), s))
    |> Array.of_list
  in
  (* Reject two sources on the same node: the MNA system would be
     singular and the netlist is certainly wrong. *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (nd, _) ->
      if Hashtbl.mem seen nd then
        invalid_arg "Transient: two voltage sources on one node";
      Hashtbl.add seen nd ())
    vsrc;
  let fets =
    Circuit.mosfets ckt
    |> List.map (fun (_, (g : Circuit.node), (d : Circuit.node), (s : Circuit.node), eval) ->
           ((g :> int), (d :> int), (s :> int), eval))
    |> Array.of_list
  in
  let name_index = Hashtbl.create 64 in
  List.iteri (fun i nm -> Hashtbl.add name_index nm i) (Circuit.node_names ckt);
  { n; m = Array.length vsrc; res; caps; vsrc; fets; name_index }

let is_gnd i = i < 0
let getv x i = if is_gnd i then 0.0 else x.(i)

(* ------------------------------------------------------------------ *)
(* Solver hot path.

   The Newton/transient kernel is built around a per-solve workspace
   created once in [run] and reused across every step and iteration:

   - The system matrix is a dense [Numerics.Matrix] in unknown order.
     Its LU skips the zero entries of each pivot row, so the sparse
     MNA rows cost little without a reordering or a second kernel.
   - The matrix is split into a constant linear part — gmin loads,
     resistors, voltage-source rows, plus the dt-dependent capacitor
     companion conductances — stamped only when its (gmin, h,
     integration) key changes, and the MOSFET stamps, re-applied per
     Newton iteration on top of a baseline copy.
   - The factorization is kept across iterations and accepted steps
     (modified Newton) while the iteration keeps contracting; it is
     refactored when progress stalls, the linear key changes, or a
     solve fails. The residual is always exact, so reuse changes the
     iteration count, never the converged answer beyond the Newton
     tolerances.
   - All vectors ([f], [rhs], trial states, capacitor snapshots) are
     preallocated; the inner loop negates the residual into the rhs
     buffer and the solve overwrites it in place, and each device
     evaluation writes its current and derivatives into [fet_vals], so
     a Newton iteration allocates nothing. *)

type ws = {
  nu : int;
  m : Numerics.Matrix.t; (* Jacobian: [lin] plus the MOSFET stamps *)
  lin : Numerics.Matrix.t; (* linear part, see [ensure_lin] *)
  fact : Numerics.Matrix.fact;
  f : float array; (* residual *)
  rhs : float array; (* negated residual, then the Newton update *)
  x0 : float array; (* newton entry state, for the pure-Newton restart *)
  vvals : float array; (* per-vsource value at the current solve time *)
  fet_vals : float array; (* per-fet (ids, dg, dd, ds) from the residual *)
  cap_geq : float array; (* per-cap companion conductance for this call *)
  cap_ieq : float array; (* per-cap companion current for this call *)
  (* Compiled MOSFET stamp pattern: the sparsity is static, so every
     Jacobian entry a fet touches is resolved once to its backing
     array and flat offset; [restamp] is then a single tight loop. *)
  stamp_arr : float array array; (* target array per stamp entry *)
  stamp_idx : int array; (* flat offset into [stamp_arr.(e)] *)
  stamp_src : int array; (* index into [fet_vals] *)
  stamp_sign : float array;
  (* Device topology unpacked structure-of-arrays: the residual loop
     runs every Newton iteration, and reading parallel int/float
     arrays beats chasing the compiled tuples' boxed float fields. *)
  res_a : int array;
  res_b : int array;
  res_g : float array;
  cap_a : int array;
  cap_b : int array;
  cap_c : float array;
  fet_g : int array;
  fet_d : int array;
  fet_s : int array;
  fet_eval : Circuit.mosfet_eval array;
  vsrc_nd : int array;
  mutable lin_valid : bool;
  mutable lin_gmin : float;
  mutable lin_h : float; (* 0 = DC: no capacitor companions *)
  mutable lin_integ : integration;
  mutable fact_valid : bool;
  mutable fact_stale : int; (* iterations solved since last factor *)
  (* step-level scratch owned by [run] *)
  vcap0 : float array;
  icap0 : float array;
  xtrial : float array;
  xcomp : float array;
  (* Predictor state: the last accepted solution and its step size
     (one slot, so a store does not box), for the linear-extrapolation
     initial guess on the next step. *)
  xprev : float array;
  hprev : float array;
  mutable have_prev : bool;
  (* Verified fixed points of the fixed-grid step, one entry per
     capacitor-current vector of the period-2 orbit (see
     [repeated_entry]): the Newton iterate the verified solve started
     from, and per entry the capacitor currents it entered with, the
     source values and each capacitor's companion term. *)
  fp_xit : float array;
  fp_icap : float array; (* 2 x ncap *)
  fp_vv : float array; (* 2 x nsrc *)
  fp_term : float array; (* 2 x ncap *)
  mutable fp_n : int; (* live entries: 0, 1 or 2 *)
  nscr : float array;
      (* Newton loop float state (max dv / max f / previous dv): a
         float array instead of refs so stores stay unboxed. *)
  (* Newton loop int/bool state as mutable fields rather than local
     refs, so a solve allocates nothing: immediate values need neither
     a ref cell nor a write barrier. *)
  mutable nw_iter : int;
  mutable nw_stale : int;
  mutable nw_conv : bool;
  mutable nw_total : int;
  mutable nw_reused : bool;
}

let make_ws cp =
  let nu = cp.n + cp.m in
  let m = Numerics.Matrix.create nu nu in
  let ncap = Array.length cp.caps in
  let stamps =
    let acc = ref [] in
    Array.iteri
      (fun k (g, d, s, _) ->
        let base = 4 * k in
        let entry i j src sign =
          if (not (is_gnd i)) && not (is_gnd j) then begin
            let arr, idx = Numerics.Matrix.slot m i j in
            acc := (arr, idx, src, sign) :: !acc
          end
        in
        entry d g (base + 1) 1.0;
        entry d d (base + 2) 1.0;
        entry d s (base + 3) 1.0;
        entry s g (base + 1) (-1.0);
        entry s d (base + 2) (-1.0);
        entry s s (base + 3) (-1.0))
      cp.fets;
    Array.of_list (List.rev !acc)
  in
  {
    nu;
    m;
    lin = Numerics.Matrix.create nu nu;
    fact = Numerics.Matrix.fact_create nu;
    f = Array.make nu 0.0;
    rhs = Array.make nu 0.0;
    x0 = Array.make nu 0.0;
    vvals = Array.make (Array.length cp.vsrc) 0.0;
    fet_vals = Array.make (4 * Array.length cp.fets) 0.0;
    cap_geq = Array.make ncap 0.0;
    cap_ieq = Array.make ncap 0.0;
    stamp_arr = Array.map (fun (a, _, _, _) -> a) stamps;
    stamp_idx = Array.map (fun (_, i, _, _) -> i) stamps;
    stamp_src = Array.map (fun (_, _, s, _) -> s) stamps;
    stamp_sign = Array.map (fun (_, _, _, sg) -> sg) stamps;
    res_a = Array.map (fun (a, _, _) -> a) cp.res;
    res_b = Array.map (fun (_, b, _) -> b) cp.res;
    res_g = Array.map (fun (_, _, g) -> g) cp.res;
    cap_a = Array.map (fun (a, _, _) -> a) cp.caps;
    cap_b = Array.map (fun (_, b, _) -> b) cp.caps;
    cap_c = Array.map (fun (_, _, c) -> c) cp.caps;
    fet_g = Array.map (fun (g, _, _, _) -> g) cp.fets;
    fet_d = Array.map (fun (_, d, _, _) -> d) cp.fets;
    fet_s = Array.map (fun (_, _, s, _) -> s) cp.fets;
    fet_eval = Array.map (fun (_, _, _, e) -> e) cp.fets;
    vsrc_nd = Array.map (fun (nd, _) -> nd) cp.vsrc;
    lin_valid = false;
    lin_gmin = 0.0;
    lin_h = 0.0;
    lin_integ = Trapezoidal;
    fact_valid = false;
    fact_stale = 0;
    vcap0 = Array.make ncap 0.0;
    icap0 = Array.make ncap 0.0;
    xtrial = Array.make nu 0.0;
    xcomp = Array.make nu 0.0;
    xprev = Array.make nu 0.0;
    hprev = [| 0.0 |];
    have_prev = false;
    fp_xit = Array.make nu 0.0;
    fp_icap = Array.make (2 * ncap) 0.0;
    fp_vv = Array.make (2 * Array.length cp.vsrc) 0.0;
    fp_term = Array.make (2 * ncap) 0.0;
    fp_n = 0;
    nscr = Array.make 3 0.0;
    nw_iter = 0;
    nw_stale = 0;
    nw_conv = false;
    nw_total = 0;
    nw_reused = false;
  }

(* Trapezoidal companion of a capacitor [c] over a step [h] from state
   (v0, i0): conductance [g] and current [ieq]; its current at branch
   voltage [v] is [cap_term ~g ~ieq v]. The stamp, the Newton call, the
   residual and the fixed-point skip all go through these, so the skip
   compares exactly the floats the residual would compute. *)
let[@inline] trap_g c h = 2.0 *. c /. h
let[@inline] trap_ieq ~g v0 i0 = -.((g *. v0) +. i0)
let[@inline] cap_term ~g ~ieq v = (g *. v) +. ieq

let geq_of ~integ ~h c =
  match integ with
  | Backward_euler -> c /. h
  | Trapezoidal -> trap_g c h

(* Restamp the linear baseline — gmin loads, resistors, capacitor
   companion conductances for the current step size, voltage-source
   rows — when its key changes. On a fixed grid this happens once per
   solve; adaptive stepping restamps when h or the companion model
   changes. Any change invalidates the kept factorization. *)
let[@inline] lin_stale ws cp ~gmin ~h ~integ =
  (* Grid arithmetic jitters [h] by a few ulps between nominally equal
     fixed-grid steps; stamping the companion conductances at a step
     size within 1e-9 relative of the last one leaves the Jacobian
     stale by the same negligible factor (the residual always uses the
     exact [h]), so treat such steps as equal rather than restamping
     and refactoring every step. *)
  let same_h =
    h = ws.lin_h || abs_float (h -. ws.lin_h) <= 1e-9 *. abs_float h
  in
  (not ws.lin_valid)
  || ws.lin_gmin <> gmin
  || (not same_h)
  || (h > 0.0 && ws.lin_integ <> integ && Array.length cp.caps > 0)

let ensure_lin ws cp ~gmin ~h ~integ =
  if lin_stale ws cp ~gmin ~h ~integ then begin
    let add = Numerics.Matrix.add_to ws.lin in
    Numerics.Matrix.fill ws.lin 0.0;
    for i = 0 to cp.n - 1 do
      add i i gmin
    done;
    for k = 0 to Array.length cp.res - 1 do
      let a, b, g = cp.res.(k) in
      if not (is_gnd a) then begin
        add a a g;
        if not (is_gnd b) then add a b (-.g)
      end;
      if not (is_gnd b) then begin
        add b b g;
        if not (is_gnd a) then add b a (-.g)
      end
    done;
    if h > 0.0 then
      for k = 0 to Array.length cp.caps - 1 do
        let a, b, c = cp.caps.(k) in
        let geq = geq_of ~integ ~h c in
        if not (is_gnd a) then begin
          add a a geq;
          if not (is_gnd b) then add a b (-.geq)
        end;
        if not (is_gnd b) then begin
          add b b geq;
          if not (is_gnd a) then add b a (-.geq)
        end
      done;
    for j = 0 to Array.length cp.vsrc - 1 do
      let nd, _ = cp.vsrc.(j) in
      let row = cp.n + j in
      add nd row 1.0;
      add row nd 1.0
    done;
    ws.lin_valid <- true;
    ws.lin_gmin <- gmin;
    ws.lin_h <- h;
    ws.lin_integ <- integ;
    ws.fact_valid <- false
  end

(* Exact KCL residual at [x], into [ws.f]. Device evaluations are also
   what the Jacobian restamp needs, so the per-fet derivatives are
   parked in [ws.fet_vals] — one [eval] per fet per iteration. *)
(* Node indices in the unpacked topology arrays were validated at
   compile time (gnd encoded negative, others < n <= nu), so the
   device loops below use unsafe accesses on the nu-sized vectors. *)
let ugetv x i = if is_gnd i then 0.0 else Array.unsafe_get x i

let uacc f i v = Array.unsafe_set f i (Array.unsafe_get f i +. v)

let residual ws cp ~gmin ~h x =
  let f = ws.f in
  Array.fill f 0 ws.nu 0.0;
  for i = 0 to cp.n - 1 do
    Array.unsafe_set f i (gmin *. Array.unsafe_get x i)
  done;
  let ra = ws.res_a and rb = ws.res_b and rg = ws.res_g in
  for k = 0 to Array.length ra - 1 do
    let a = Array.unsafe_get ra k and b = Array.unsafe_get rb k in
    let i = Array.unsafe_get rg k *. (ugetv x a -. ugetv x b) in
    if not (is_gnd a) then uacc f a i;
    if not (is_gnd b) then uacc f b (-.i)
  done;
  if h > 0.0 then begin
    (* Companion values precomputed once per Newton call ([newton]
       fills [cap_geq]/[cap_ieq]); the capacitor state is fixed for
       the whole call. *)
    let ca = ws.cap_a and cb = ws.cap_b in
    let geq = ws.cap_geq and ieq = ws.cap_ieq in
    for k = 0 to Array.length ca - 1 do
      let a = Array.unsafe_get ca k and b = Array.unsafe_get cb k in
      let i =
        cap_term ~g:(Array.unsafe_get geq k) ~ieq:(Array.unsafe_get ieq k)
          (ugetv x a -. ugetv x b)
      in
      if not (is_gnd a) then uacc f a i;
      if not (is_gnd b) then uacc f b (-.i)
    done
  end;
  let fg = ws.fet_g and fd = ws.fet_d and fs = ws.fet_s in
  let fe = ws.fet_eval and fv = ws.fet_vals in
  for k = 0 to Array.length fe - 1 do
    let d = fd.(k) and s = fs.(k) in
    let base = 4 * k in
    fe.(k) x ~g:fg.(k) ~d ~s fv base;
    let ids = Array.unsafe_get fv base in
    if not (is_gnd d) then uacc f d ids;
    if not (is_gnd s) then uacc f s (-.ids)
  done;
  let vn = ws.vsrc_nd in
  for j = 0 to Array.length vn - 1 do
    let nd = vn.(j) in
    let row = cp.n + j in
    f.(nd) <- f.(nd) +. x.(row);
    f.(row) <- x.(nd) -. ws.vvals.(j)
  done

(* Full Jacobian = linear baseline copy + MOSFET stamps at the
   derivatives the residual pass just evaluated. *)
let restamp ws =
  Numerics.Matrix.blit ws.lin ws.m;
  let fv = ws.fet_vals in
  let idx = ws.stamp_idx and src = ws.stamp_src and sg = ws.stamp_sign in
  for e = 0 to Array.length idx - 1 do
    let arr = ws.stamp_arr.(e) in
    let i = idx.(e) in
    arr.(i) <- arr.(i) +. (sg.(e) *. fv.(src.(e)))
  done

let factorize ws =
  ws.fact_valid <- false;
  Numerics.Matrix.factor_into ws.m ws.fact;
  ws.fact_valid <- true;
  ws.fact_stale <- 0;
  Atomic.incr Stats.factorizations

(* A reused Jacobian must keep the error contracting; once the update
   stops shrinking by at least this factor per iteration, refactor. *)
let reuse_contraction = 0.5

(* A single Newton call may spend at most this many iterations on a
   stale factorization before refactoring: steps that converge
   immediately (the quiescent bulk of a transient) pay nothing, while
   transition steps get a fresh Jacobian after two cut-rate iterations
   instead of grinding linearly toward the tolerance. *)
let max_stale_iters = 2

(* One Newton phase: iterate to convergence, optionally reusing a stale
   Jacobian factorization. Lifted to the top level (rather than a
   closure inside [newton]) and with loop state in [ws] scratch fields
   so a converging phase allocates nothing. Returns true on
   convergence. *)
let solve_phase ws cp cfg ~gmin ~h ~reuse x =
  let nu = ws.nu in
  ws.nw_conv <- false;
  ws.nw_iter <- 0;
  ws.nw_stale <- 0;
  (* Float loop state lives in the [nscr] scratch array: a bare
     [ref 0.0] would box a fresh float on every store (no flambda),
     wrecking the allocation-free inner loop. Slot 0 is max |dv|,
     slot 1 max |f|, slot 2 the previous iteration's max |dv|. *)
  let sc = ws.nscr in
  sc.(2) <- infinity;
  (try
     while not ws.nw_conv do
       if ws.nw_iter >= cfg.max_newton then raise Exit;
       ws.nw_iter <- ws.nw_iter + 1;
       residual ws cp ~gmin ~h x;
       if (not reuse) || not ws.fact_valid then begin
         restamp ws;
         factorize ws
       end
       else begin
         ws.fact_stale <- ws.fact_stale + 1;
         ws.nw_stale <- ws.nw_stale + 1;
         ws.nw_reused <- true;
         Atomic.incr Stats.jac_reuses
       end;
       (* A non-finite residual or update fails the call at once: a
          NaN never wins the max comparisons below, so it would
          otherwise read as converged. *)
       for i = 0 to nu - 1 do
         let r = ws.f.(i) in
         if not (abs_float r < infinity) then raise Exit;
         ws.rhs.(i) <- -.r
       done;
       Numerics.Matrix.solve_into ws.fact ws.rhs;
       for i = 0 to nu - 1 do
         if not (abs_float ws.rhs.(i) < infinity) then raise Exit
       done;
       (* Clamp voltage updates for robustness; branch currents
          free. *)
       sc.(0) <- 0.0;
       for i = 0 to cp.n - 1 do
         let d = ws.rhs.(i) in
         let d =
           if d > vstep_limit then vstep_limit
           else if d < -.vstep_limit then -.vstep_limit
           else d
         in
         x.(i) <- x.(i) +. d;
         if abs_float d > sc.(0) then sc.(0) <- abs_float d
       done;
       for i = cp.n to nu - 1 do
         x.(i) <- x.(i) +. ws.rhs.(i)
       done;
       sc.(1) <- 0.0;
       for i = 0 to cp.n - 1 do
         if abs_float ws.f.(i) > sc.(1) then sc.(1) <- abs_float ws.f.(i)
       done;
       if sc.(0) < newton_tol_v && sc.(1) < newton_tol_i then
         ws.nw_conv <- true
       else if
           reuse && ws.fact_stale > 0
           && (ws.nw_stale >= max_stale_iters
              || sc.(0) >= reuse_contraction *. sc.(2))
       then
         (* Stalled — or burning too many cut-rate iterations — under
            a stale Jacobian: refactor at the new iterate next time
            round. Quiescent steps converge on their first (reused)
            iteration and never get here. *)
         ws.fact_valid <- false;
       sc.(2) <- sc.(0)
     done
   with
  | Exit -> ()
  | Numerics.Matrix.Singular _ -> ());
  ws.nw_total <- ws.nw_total + ws.nw_iter;
  ws.nw_conv

(* Newton solve of f(x) = 0 at time [t], mutating [x] in place.
   [h] = 0 means DC (capacitors open); otherwise the companion model
   for step size [h] with state in [ws.vcap0]/[ws.icap0]. Returns true
   on convergence. *)
let newton ws cp cfg ~gmin ~t ~h ~integ x =
  let nu = ws.nu in
  ensure_lin ws cp ~gmin ~h ~integ;
  for j = 0 to Array.length cp.vsrc - 1 do
    let _, src = cp.vsrc.(j) in
    ws.vvals.(j) <- t;
    Source.value_into src ws.vvals j
  done;
  (if h > 0.0 then
     (* The capacitor companion is constant for the whole call: [h],
        the model, and the cap state are all fixed until the caller
        commits the step. The integrator match is hoisted so the loop
        body is straight-line unboxed float stores. *)
     let cc = ws.cap_c and geq = ws.cap_geq and ieq = ws.cap_ieq in
     let v0 = ws.vcap0 and i0 = ws.icap0 in
     match integ with
     | Backward_euler ->
         for k = 0 to Array.length cc - 1 do
           let g = cc.(k) /. h in
           geq.(k) <- g;
           ieq.(k) <- -.(g *. v0.(k))
         done
     | Trapezoidal ->
         for k = 0 to Array.length cc - 1 do
           let g = trap_g cc.(k) h in
           geq.(k) <- g;
           ieq.(k) <- trap_ieq ~g v0.(k) i0.(k)
         done);
  Array.blit x 0 ws.x0 0 nu;
  ws.nw_total <- 0;
  ws.nw_reused <- false;
  let ok = solve_phase ws cp cfg ~gmin ~h ~reuse:cfg.jac_reuse x in
  let ok =
    if ok || not ws.nw_reused then ok
    else begin
      (* Jacobian reuse must never fail a solve full Newton would have
         converged: restart from the entry state without reuse. *)
      Array.blit ws.x0 0 x 0 nu;
      ws.fact_valid <- false;
      solve_phase ws cp cfg ~gmin ~h ~reuse:false x
    end
  in
  ignore (Atomic.fetch_and_add Stats.newton_iters ws.nw_total);
  if not ok then ws.fact_valid <- false;
  ok

let dc_solve ws cp cfg ~at x =
  let solve g = newton ws cp cfg ~gmin:g ~t:at ~h:0.0 ~integ:Trapezoidal x in
  if solve gmin then true
  else begin
    (* gmin stepping: load the circuit heavily, then relax. *)
    Atomic.incr Stats.gmin_retries;
    let steps = [ 1e-3; 1e-5; 1e-7; 1e-9; gmin ] in
    List.for_all solve steps
  end

type result = {
  grid : float array;
  data : float array;
  (* Sample k is [data.(k * width) .. data.(k * width + width - 1)]:
     node voltages (columns named by [index]), then vsource branch
     currents. One flat array, so recording a sample allocates nothing;
     it may run past the last sample. *)
  width : int;
  index : (string, int) Hashtbl.t;
}

let probe r name =
  match Hashtbl.find_opt r.index name with
  | None -> raise Not_found
  | Some i ->
      Waveform.Wave.create r.grid
        (Array.init (Array.length r.grid) (fun k -> r.data.((k * r.width) + i)))

let build_grid cp cfg =
  let span = cfg.tstop -. cfg.tstart in
  if span <= 0.0 then invalid_arg "Transient.run: tstop <= tstart";
  if cfg.dt <= 0.0 then invalid_arg "Transient.run: dt must be positive";
  let nsteps = int_of_float (ceil (span /. cfg.dt)) in
  let breaks =
    Array.to_list cp.vsrc
    |> List.concat_map (fun (_, s) -> Source.breakpoints s)
    |> List.filter (fun t -> t > cfg.tstart && t < cfg.tstop)
    |> List.sort_uniq compare |> Array.of_list
  in
  (* Merge the uniform grid with the (few, sorted) source breakpoints
     into a preallocated array. Building the grid through intermediate
     lists costs tens of words per point — comparable to the entire
     step loop — so the merge works directly on the output array.
     Points closer than dt/100 to their predecessor are dropped,
     keeping the grid strictly increasing with sane step sizes. *)
  let eps = cfg.dt /. 100.0 in
  let out = Array.make (nsteps + 1 + Array.length breaks) 0.0 in
  let m = ref 0 in
  let push t =
    if !m = 0 || t -. out.(!m - 1) >= eps then begin
      out.(!m) <- t;
      incr m
    end
  in
  let bi = ref 0 in
  let nbreaks = Array.length breaks in
  for i = 0 to nsteps do
    let t = Float.min cfg.tstop (cfg.tstart +. (cfg.dt *. float_of_int i)) in
    while !bi < nbreaks && breaks.(!bi) < t do
      push breaks.(!bi);
      incr bi
    done;
    push t
  done;
  while !bi < nbreaks do
    push breaks.(!bi);
    incr bi
  done;
  Array.sub out 0 !m

let validate_adaptive a =
  if a.lte_tol <= 0.0 then
    invalid_arg "Transient.run: lte_tol must be positive";
  if a.dt_min <= 0.0 then
    invalid_arg "Transient.run: dt_min must be positive";
  if a.dt_max < a.dt_min then invalid_arg "Transient.run: dt_max < dt_min";
  if a.grow_limit < 1.0 then
    invalid_arg "Transient.run: grow_limit must be >= 1";
  if a.safety <= 0.0 || a.safety > 1.0 then
    invalid_arg "Transient.run: safety must be in (0, 1]"

(* ------------------------------------------------------------------ *)
(* Per-case solve state.

   Everything one transient case needs between accepted steps lives in
   this record: the compiled circuit, its workspace, the committed
   solution [c_x], the capacitor state and the accepted-step budget. *)
type case_state = {
  c_cp : compiled;
  c_ws : ws;
  c_cfg : config;
  c_fault : Fault.kind option; (* rolled by [run]; [Diverge] handled there *)
  c_x : float array; (* committed solution *)
  c_vcap : float array;
  c_icap : float array;
  mutable c_steps : int; (* accepted steps; 0 = nothing charged yet *)
  mutable c_skipped : int; (* accepted steps committed without a solve *)
  c_step : float array;
      (* end time and size of the step being taken: slots, so the
         per-step path passes no boxed float *)
  c_levels : float array; (* [settle_levels]; empty = no settle stop *)
  c_quiet : float; (* every source is quiet from here on *)
  mutable c_calm : int; (* grid steps' worth of calm time in a row: the
                            accepted steps that moved no node by
                            [settle_slope] per ps or more *)
  mutable c_calm_steps : int; (* accepted steps in that calm span *)
}

let case_load_caps st =
  let ncap = Array.length st.c_vcap in
  Array.blit st.c_vcap 0 st.c_ws.vcap0 0 ncap;
  Array.blit st.c_icap 0 st.c_ws.icap0 0 ncap

(* Accepted-step bookkeeping for the step in [c_step]: budget,
   deadline, and the [Slow] fault stall — a deadline trips mid-solve at
   a step boundary, the cancellation point the deadline machinery
   promises. The step counts reach [Stats] once per run
   ([case_flush_stats]), not through two atomics per step. *)
let[@inline] case_charge_step st =
  let at = st.c_step.(0) in
  st.c_steps <- st.c_steps + 1;
  Deadline.check ~at;
  (match st.c_fault with
  | Some Fault.Slow -> Unix.sleepf Fault.slow_step_s
  | _ -> ());
  if st.c_cfg.max_steps > 0 && st.c_steps > st.c_cfg.max_steps then
    raise (Step_budget_exhausted { at; budget = st.c_cfg.max_steps })

(* Add the run's accepted and skipped steps to [Stats], on every exit
   of the step loop, so the totals stay exact when a step raises. *)
let case_flush_stats st =
  ignore (Atomic.fetch_and_add Stats.steps st.c_steps);
  ignore (Atomic.fetch_and_add Stats.skipped_steps st.c_skipped)

(* The settle stop, called after every accepted step (the one in
   [c_step], ending at t with length h) that took the nodes from the
   state at [x0.(o0)] to the one at [x1.(o1)]: true when the run may
   end here (see [settle_slope]). It only reads the state, so the steps
   before a stop are the ones a run to [tstop] takes. *)
let settled st x0 o0 x1 o1 =
  let n = st.c_cp.n and levels = st.c_levels in
  Array.length levels > 0
  && begin
       let t = st.c_step.(0) and h = st.c_step.(1) in
       let bound = settle_slope *. (h /. 1e-12) in
       let calm = ref true in
       for i = 0 to n - 1 do
         if abs_float (x1.(o1 + i) -. x0.(o0 + i)) >= bound then
           calm := false
       done;
       if !calm then begin
         st.c_calm <- st.c_calm + max 1 (int_of_float (h /. st.c_cfg.dt));
         st.c_calm_steps <- st.c_calm_steps + 1
       end
       else begin
         st.c_calm <- 0;
         st.c_calm_steps <- 0
       end;
       st.c_calm >= settle_steps
       && st.c_calm_steps >= settle_min_steps
       && t >= st.c_quiet
       && begin
            let away = ref true in
            for i = 0 to n - 1 do
              for l = 0 to Array.length levels - 1 do
                if abs_float (x1.(o1 + i) -. levels.(l)) < settle_margin then
                  away := false
              done
            done;
            !away
          end
     end

(* Commit the trapezoidal capacitor state of an accepted step. *)
let case_commit st ~h xnew =
  let ws = st.c_ws in
  let ca = ws.cap_a and cb = ws.cap_b and cc = ws.cap_c in
  let v0 = ws.vcap0 and i0 = ws.icap0 in
  let vcap = st.c_vcap and icap = st.c_icap in
  for k = 0 to Array.length vcap - 1 do
    let v = ugetv xnew ca.(k) -. ugetv xnew cb.(k) in
    icap.(k) <- ((2.0 *. cc.(k) /. h) *. (v -. v0.(k))) -. i0.(k);
    vcap.(k) <- v
  done

(* One integration step of size h ending at time t, with the given
   companion model and capacitor state in [ws.vcap0]/[ws.icap0].
   Returns false if Newton diverged. On success, cap state is NOT yet
   committed; the caller commits via [case_commit]. *)
let case_attempt st ~integ ~t ~h xtrial =
  newton st.c_ws st.c_cp st.c_cfg ~gmin ~t ~h ~integ xtrial

(* ------------------------------------------------------------------ *)
(* The fixed-point skip (DESIGN §9 item 9). Before its stimulus moves,
   a fixed-grid replay sits at a state that the trapezoidal step maps to
   itself bit for bit: Newton, seeded with the state, converges in one
   iteration on the kept factorization and commits the state again,
   with every capacitor current negated ([0.0 -. i0]). A step that
   provably repeats such a verified solve commits what the solve would
   commit without running it. Entries live only while every step since
   their verification was verified or skipped, so the state is the
   verified one, [xprev] equals it and the kept factorization is the
   one the verified solve used. *)

(* Floats that are the same value with the same sign, so -0.0 and 0.0
   differ and a NaN matches nothing: the bits agree on every finite
   value. Plain comparisons, as [Int64.bits_of_float] is a C call; the
   division runs only on zeros. *)
let[@inline] same_bits (a : float) b =
  a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

let rec same_slice a ia b ib n =
  n = 0 || (same_bits a.(ia) b.(ib) && same_slice a (ia + 1) b (ib + 1) (n - 1))

let rec negated a b n =
  n = 0 || (same_bits a.(n - 1) (0.0 -. b.(n - 1)) && negated a b (n - 1))

(* The entry the step in [c_step] (size h, ending at t1) repeats, or
   -1: [ensure_lin] would keep the factorization, the capacitor
   currents equal the entry's, and each capacitor's companion term at
   this step size and every source value at t1 equal the verified
   solve's. The solve would then evaluate the same residual at the same
   iterate and take the same update. The sources are evaluated into
   [vvals], where the solve would put the same values. *)
let repeated_entry st =
  let ws = st.c_ws and cp = st.c_cp in
  let t1 = st.c_step.(0) and h = st.c_step.(1) in
  if ws.fp_n = 0 || (not ws.fact_valid)
     || lin_stale ws cp ~gmin ~h ~integ:Trapezoidal
  then -1
  else begin
    let ncap = Array.length st.c_icap and i0 = st.c_icap in
    let e =
      if same_slice i0 0 ws.fp_icap 0 ncap then 0
      else if ws.fp_n = 2 && same_slice i0 0 ws.fp_icap ncap ncap then 1
      else -1
    in
    let ok = ref (e >= 0) in
    (* Recomputing the terms costs no more than looking them up in a
       table of the grid's distinct step sizes. *)
    let xi = ws.fp_xit and v0 = st.c_vcap and cc = ws.cap_c in
    for k = 0 to ncap - 1 do
      if !ok then begin
        let g = trap_g cc.(k) h in
        let ieq = trap_ieq ~g v0.(k) i0.(k) in
        let term =
          cap_term ~g ~ieq (ugetv xi ws.cap_a.(k) -. ugetv xi ws.cap_b.(k))
        in
        if not (same_bits term ws.fp_term.((e * ncap) + k)) then ok := false
      end
    done;
    let nsrc = Array.length cp.vsrc in
    for j = 0 to nsrc - 1 do
      if !ok then begin
        let _, src = cp.vsrc.(j) in
        ws.vvals.(j) <- t1;
        Source.value_into src ws.vvals j;
        if not (same_bits ws.vvals.(j) ws.fp_vv.((e * nsrc) + j)) then
          ok := false
      end
    done;
    if !ok then e else -1
  end

(* After a solved step's commit: record it as an entry when it verifies
   as a fixed point, else drop every entry. [candidate] says the step's
   first Newton call converged in one iteration on the kept
   factorization from the predicted iterate. It verifies when it also
   entered with [xprev] equal to the state and committed the entry
   state, capacitor voltages and negated currents. *)
let note_fixed_point st ~candidate =
  let ws = st.c_ws and x = st.c_x in
  let nu = ws.nu and ncap = Array.length st.c_icap in
  if
    not
      (candidate
      && same_slice ws.xprev 0 x 0 nu
      && same_slice ws.xtrial 0 x 0 nu
      && same_slice st.c_vcap 0 ws.vcap0 0 ncap
      && negated st.c_icap ws.icap0 ncap)
  then ws.fp_n <- 0
  else begin
    let e =
      if ws.fp_n >= 1 && same_slice ws.icap0 0 ws.fp_icap 0 ncap then 0
      else if ws.fp_n = 2 && same_slice ws.icap0 0 ws.fp_icap ncap ncap then 1
      else if ws.fp_n = 1 then (ws.fp_n <- 2; 1)
      else (ws.fp_n <- 1; 0)
    in
    let nsrc = Array.length ws.vvals in
    Array.blit ws.x0 0 ws.fp_xit 0 nu;
    Array.blit ws.icap0 0 ws.fp_icap (e * ncap) ncap;
    Array.blit ws.vvals 0 ws.fp_vv (e * nsrc) nsrc;
    let xi = ws.x0 in
    for k = 0 to ncap - 1 do
      ws.fp_term.((e * ncap) + k) <-
        cap_term ~g:ws.cap_geq.(k) ~ieq:ws.cap_ieq.(k)
          (ugetv xi ws.cap_a.(k) -. ugetv xi ws.cap_b.(k))
    done
  end

(* Commit the step in [c_step] without its solve when it repeats a
   verified entry, leaving what the solve would: the same state and
   capacitor voltages, negated currents, [xprev] (already the state),
   the step size and one more iteration on the kept factorization. *)
let skipped st =
  repeated_entry st >= 0
  && begin
       let ws = st.c_ws and icap = st.c_icap in
       st.c_skipped <- st.c_skipped + 1;
       case_charge_step st;
       for k = 0 to Array.length icap - 1 do
         icap.(k) <- 0.0 -. icap.(k)
       done;
       ws.hprev.(0) <- st.c_step.(1);
       ws.fact_stale <- ws.fact_stale + 1;
       true
     end

(* Advance from t0 to t1, bisecting on failure. The ws scratch buffers
   are safe across the recursion: a failed attempt's parent state is
   dead by the time a child reloads them. *)
let rec fixed_advance st depth t0 t1 =
  st.c_step.(0) <- t1;
  st.c_step.(1) <- t1 -. t0;
  if not (skipped st) then fixed_solve st depth t0 t1

and fixed_solve st depth t0 t1 =
  let ws = st.c_ws and x = st.c_x in
  let nu = ws.nu in
  let h = t1 -. t0 in
  case_load_caps st;
  let xtrial = ws.xtrial in
  (* Linear-extrapolation predictor: seed Newton with the solution
     continued along the last accepted step's slope. Near-free on
     quiescent spans and typically saves an iteration through
     transitions; a failed predicted solve retries once from the flat
     (previous-solution) guess before bisecting. *)
  let predicted = ws.have_prev && ws.hprev.(0) > 0.0 in
  if predicted then begin
    let r = h /. ws.hprev.(0) in
    let xp = ws.xprev in
    for i = 0 to nu - 1 do
      xtrial.(i) <- x.(i) +. ((x.(i) -. xp.(i)) *. r)
    done
  end
  else Array.blit x 0 xtrial 0 nu;
  let first = case_attempt st ~integ:Trapezoidal ~t:t1 ~h xtrial in
  let candidate = first && predicted && ws.nw_total = 1 && ws.nw_reused in
  let ok =
    first
    || predicted
       && (case_load_caps st;
           Array.blit x 0 xtrial 0 nu;
           case_attempt st ~integ:Trapezoidal ~t:t1 ~h xtrial)
  in
  if ok then begin
    case_charge_step st;
    case_commit st ~h xtrial;
    note_fixed_point st ~candidate;
    Array.blit x 0 ws.xprev 0 nu;
    ws.hprev.(0) <- h;
    ws.have_prev <- true;
    Array.blit xtrial 0 x 0 nu
  end
  else begin
    ws.fp_n <- 0;
    if depth >= max_bisection then raise (No_convergence t1);
    Atomic.incr Stats.bisections;
    let tm = 0.5 *. (t0 +. t1) in
    fixed_advance st (depth + 1) t0 tm;
    fixed_advance st (depth + 1) tm t1;
    st.c_step.(0) <- t1;
    st.c_step.(1) <- h
  end

(* Walk the fixed grid one interval at a time, recording each
   committed sample, up to the settle stop. Each step is taken as
   [fixed_advance] takes it, written out so that a skipped step boxes
   neither of its times; with the samples in one flat array, it
   allocates nothing. *)
let run_fixed st =
  let grid = build_grid st.c_cp st.c_cfg in
  let x = st.c_x in
  let nu = Array.length x in
  let data = Array.create_float (Array.length grid * nu) in
  Array.blit x 0 data 0 nu;
  let last = ref (Array.length grid - 1) in
  let k = ref 1 in
  while !k <= !last do
    let t0 = grid.(!k - 1) and t1 = grid.(!k) in
    st.c_step.(0) <- t1;
    st.c_step.(1) <- t1 -. t0;
    if not (skipped st) then fixed_solve st 0 t0 t1;
    let o = !k * nu in
    for i = 0 to nu - 1 do
      data.(o + i) <- x.(i)
    done;
    if settled st data (o - nu) data o then last := !k;
    incr k
  done;
  if !last = Array.length grid - 1 then (grid, data)
  else (Array.sub grid 0 (!last + 1), data)

(* DC-solve the case at [tstart] and initialise the capacitor state
   (voltage across and, for trapezoidal, current). Raises
   [No_convergence] when no operating point is found. *)
let case_start cp ws cfg fault ic =
  let x = Array.make ws.nu 0.0 in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt cp.name_index name with
      | Some i -> x.(i) <- v
      | None -> invalid_arg ("Transient.run: unknown ic node " ^ name))
    ic;
  if not (dc_solve ws cp cfg ~at:cfg.tstart x) then
    raise (No_convergence cfg.tstart);
  let quiet =
    Array.fold_left
      (fun q (_, s) -> Float.max q (Source.quiet_from ~tol:settle_delta s))
      neg_infinity cp.vsrc
  in
  {
    c_cp = cp;
    c_ws = ws;
    c_cfg = cfg;
    c_fault = fault;
    c_x = x;
    c_vcap = Array.map (fun (a, b, _) -> getv x a -. getv x b) cp.caps;
    c_icap = Array.make (Array.length cp.caps) 0.0;
    c_steps = 0;
    c_skipped = 0;
    c_step = [| cfg.tstart; 0.0 |];
    c_levels = Array.of_list cfg.settle_levels;
    c_quiet = quiet;
    c_calm = 0;
    c_calm_steps = 0;
  }

(* -------------- adaptive local-truncation-error grid ------------- *)
(* Each step is solved twice, with the trapezoidal companion and with
   backward Euler, the LTE shadow. Their discrepancy is an O(h^2)
   estimate of the local truncation error; the controller
   holds it below [lte_tol], growing the step on quiescent spans and
   shrinking it through transitions. Source breakpoints are always
   landed on exactly, and steps that carry any node across a
   configured threshold level are refined to [crossing_dt] so
   downstream crossing searches keep fixed-grid accuracy. *)
let run_adaptive st a =
  let cp = st.c_cp and cfg = st.c_cfg and ws = st.c_ws and x = st.c_x in
  let nu = ws.nu in
  let dt_min = a.dt_min in
  let dt_max = a.dt_max in
  let crossing_dt =
    let d = if a.crossing_dt > 0.0 then a.crossing_dt else cfg.dt in
    Float.max dt_min (Float.min d dt_max)
  in
  let levels = Array.of_list a.crossing_levels in
  let crosses x0 x1 =
    let hit = ref false in
    for i = 0 to cp.n - 1 do
      if not !hit then
        for l = 0 to Array.length levels - 1 do
          let lv = levels.(l) in
          if (x0.(i) -. lv) *. (x1.(i) -. lv) < 0.0 then hit := true
        done
    done;
    !hit
  in
  let breaks =
    ref
      (Array.to_list cp.vsrc
      |> List.concat_map (fun (_, s) -> Source.breakpoints s)
      |> List.filter (fun t -> t > cfg.tstart && t < cfg.tstop)
      |> fun l -> List.sort_uniq compare (cfg.tstop :: l))
  in
  let ts_rev = ref [ cfg.tstart ] in
  let xs_rev = ref [ Array.copy x ] in
  let t = ref cfg.tstart in
  let dt = ref (Float.min dt_max (Float.max dt_min cfg.dt)) in
  let stopped = ref false in
  while !t < cfg.tstop && not !stopped do
    (match !breaks with
    | b :: rest when b <= !t -> breaks := rest
    | _ -> ());
    let next_bp = match !breaks with b :: _ -> b | [] -> cfg.tstop in
    let remaining = next_bp -. !t in
    (* Land exactly on the breakpoint rather than leaving a sliver. *)
    let landing = remaining <= !dt +. dt_min in
    let h = if landing then remaining else !dt in
    let t1 = if landing then next_bp else !t +. h in
    (* A landing step is pinned to [remaining], so once the controller
       dt is at the floor a rejection cannot shrink it further — treat
       it as a floor step or the reject/retry loop never advances. *)
    let floor_dt = dt_min *. (1.0 +. 1e-9) in
    let at_floor = h <= floor_dt || (landing && !dt <= floor_dt) in
    case_load_caps st;
    let xtrial = ws.xtrial in
    Array.blit x 0 xtrial 0 nu;
    if not (case_attempt st ~integ:Trapezoidal ~t:t1 ~h xtrial) then begin
      if at_floor then raise (No_convergence t1);
      Atomic.incr Stats.bisections;
      Atomic.incr Stats.rejected_steps;
      dt := Float.max dt_min (0.5 *. h)
    end
    else begin
      let xcomp = ws.xcomp in
      Array.blit x 0 xcomp 0 nu;
      let err =
        if case_attempt st ~integ:Backward_euler ~t:t1 ~h xcomp then begin
          let e = ref 0.0 in
          for i = 0 to cp.n - 1 do
            let d = abs_float (xtrial.(i) -. xcomp.(i)) in
            if d > !e then e := d
          done;
          !e
        end
        else infinity
      in
      let lte_ok = err <= a.lte_tol in
      let crossing_viol =
        Array.length levels > 0
        && h > crossing_dt *. (1.0 +. 1e-9)
        && crosses x xtrial
      in
      if (lte_ok && not crossing_viol) || at_floor then begin
        st.c_step.(0) <- t1;
        st.c_step.(1) <- h;
        case_charge_step st;
        case_commit st ~h xtrial;
        stopped := settled st x 0 xtrial 0;
        Array.blit xtrial 0 x 0 nu;
        t := t1;
        ts_rev := t1 :: !ts_rev;
        xs_rev := Array.copy x :: !xs_rev;
        let factor =
          if err <= 0.0 then a.grow_limit
          else
            Float.max 0.2
              (Float.min a.grow_limit (a.safety *. sqrt (a.lte_tol /. err)))
        in
        dt := Float.max dt_min (Float.min dt_max (h *. factor))
      end
      else begin
        Atomic.incr Stats.rejected_steps;
        if not lte_ok then Atomic.incr Stats.lte_rejections;
        let shrunk =
          if lte_ok then crossing_dt
          else if Float.is_finite err then
            Float.min (0.9 *. h)
              (h *. Float.max 0.1 (a.safety *. sqrt (a.lte_tol /. err)))
          else 0.25 *. h
        in
        (* A rejected landing step recomputes [shrunk] from the same
           pinned h = remaining every retry; halve it so dt strictly
           decreases until landing disengages or the floor forces
           acceptance. *)
        let shrunk = if landing then Float.min shrunk (0.5 *. h) else shrunk in
        dt := Float.max dt_min (Float.min shrunk dt_max)
      end
    end
  done;
  let grid = Array.of_list (List.rev !ts_rev) in
  let data = Array.concat (List.rev !xs_rev) in
  (grid, data)

(* Finalise a trace into a [result]: apply a pending [Corrupt]
   fault. *)
let assemble (cp : compiled) fault grid data =
  (* A Corrupt fault poisons every node voltage of one mid-trace
     sample, modelling a solver that "succeeded" with garbage —
     downstream validation must catch it whichever node it probes.
     The samples are a fresh array, so mutation is safe. *)
  let nu = cp.n + cp.m in
  (match fault with
  | Some Fault.Corrupt when Array.length grid > 1 && cp.n > 0 ->
      Array.fill data (Array.length grid / 2 * nu) cp.n Float.nan
  | _ -> ());
  { grid; data; width = nu; index = cp.name_index }

let validate_config cfg =
  if cfg.tstop -. cfg.tstart <= 0.0 then
    invalid_arg "Transient.run: tstop <= tstart";
  if cfg.dt <= 0.0 then invalid_arg "Transient.run: dt must be positive";
  match cfg.step_control with
  | Fixed -> ()
  | Adaptive a -> validate_adaptive a

let run ?(config = default_config) ?(ic = []) ckt =
  let cfg = config in
  Atomic.incr Stats.sims;
  let fault = Faultplan.roll Fault.injector in
  if Option.is_some fault then Atomic.incr Stats.injected_faults;
  (match fault with
  | Some Fault.Diverge -> raise (No_convergence cfg.tstart)
  | _ -> ());
  (* Fail fast when the caller's budget is already spent — after the
     fault roll so solve-index accounting matches an undeadlined run. *)
  Deadline.check ~at:cfg.tstart;
  validate_config cfg;
  let cp = compile ckt in
  let st = case_start cp (make_ws cp) cfg fault ic in
  let grid, data =
    Fun.protect
      ~finally:(fun () -> case_flush_stats st)
      (fun () ->
        match cfg.step_control with
        | Fixed -> run_fixed st
        | Adaptive a -> run_adaptive st a)
  in
  assemble cp fault grid data

(* Batch entry point: [run] over the cases in index order. Cases share
   no numerical state, so the loop is the whole kernel — traces are
   [run]'s own and an armed fault plan rolls in the sequential loop's
   order. *)
let run_batch_outcomes ?(config = default_config) ?ics ckts =
  validate_config config;
  let ics =
    match ics with
    | None -> Array.make (Array.length ckts) []
    | Some a ->
        if Array.length a <> Array.length ckts then
          invalid_arg "Transient.run_batch_outcomes: ics length mismatch";
        a
  in
  (* A caller-installed budget is sliced per case: each case may spend
     what was left when the batch started, so one slow case is
     cancelled alone and its siblings complete. *)
  let ambient = Domain.DLS.get Deadline.key in
  let left =
    match ambient with
    | None -> 0.0
    | Some (expiry, _) -> expiry -. Unix.gettimeofday ()
  in
  let in_slice f =
    match ambient with
    | None -> f ()
    | Some (_, ms) ->
        Domain.DLS.set Deadline.key (Some (Unix.gettimeofday () +. left, ms));
        Fun.protect ~finally:(fun () -> Domain.DLS.set Deadline.key ambient) f
  in
  Array.mapi
    (fun c ckt ->
      Atomic.incr Stats.batched_solves;
      match in_slice (fun () -> run ~config ~ic:ics.(c) ckt) with
      | r -> Ok r
      | exception e -> Error e)
    ckts
