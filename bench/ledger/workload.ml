(* What every workload hands back to the runner. *)

type cfg = {
  seed : int;
  seconds : float;
      (** sizes the work: the timed phase lasts about this long on the
          host the nominal rates were measured on *)
  toy : bool;  (** tiny inputs for the [dune runtest] smoke *)
}

(* How many balanced blocks of [per_block] ops fill [seconds] at
   [rate] ops/s (at least one). *)
let blocks_for cfg ~rate ~per_block =
  Int.max 1 (int_of_float (Float.round (cfg.seconds *. rate /. float_of_int per_block)))

type outcome = {
  latencies : float array;  (** seconds per op, in block order *)
  blocks : (int * float) list;
      (** (ops, seconds) of each block: a unit of work with the same
          mix of inputs as every other block of the run *)
  elapsed : float;  (** wall time of the timed phase, s *)
  failed : int;  (** ops that failed (see each workload's definition) *)
  checks : (string * bool) list;  (** correctness checks, all must hold *)
  digest : string;  (** every answer of the run, rounded *)
  notes : string list;  (** extra report lines *)
  layer : (string * float) list;  (** per-layer metrics, traced runs *)
  peak_rss_mb : float;  (** VmHWM over the timed phase *)
}

type prepared = { run : unit -> outcome; discard : unit -> unit }

type t = {
  name : string;
  unit_ : string;  (** what one op is *)
  prepare : cfg -> prepared;
      (** the set-up: everything before the timed phase *)
}

(* Process-global counters at the start of a timed phase. *)
type phase = {
  t_start : float;
  spice0 : Spice.Transient.Stats.snapshot;
  resil0 : Runtime.Resilience.Stats.snapshot;
}

let start_phase () =
  {
    t_start = Measure.now ();
    spice0 = Spice.Transient.Stats.snapshot ();
    resil0 = Runtime.Resilience.Stats.snapshot ();
  }

let spice_since p = Spice.Transient.Stats.diff (Spice.Transient.Stats.snapshot ()) p.spice0

(* Per-layer counters of the phase so far, normalized per op. *)
let counter_layers p ~ops =
  let d = spice_since p in
  let r = Runtime.Resilience.Stats.diff (Runtime.Resilience.Stats.snapshot ()) p.resil0 in
  let per x = float_of_int x /. float_of_int (Int.max 1 ops) in
  let b = d.batched_solves and pe = d.peeled_solves in
  [
    ("spice.sims_per_op", per d.sims);
    ("spice.steps_per_op", per d.steps);
    ("spice.newton_iters_per_op", per d.newton_iters);
    ("spice.factorizations_per_op", per d.factorizations);
    ("spice.batched_frac", if b + pe = 0 then 0.0 else float_of_int b /. float_of_int (b + pe));
    ("resilience.retries", float_of_int r.retries);
    ("resilience.failures", float_of_int r.failures);
  ]

let cache_layers ~ops ~hits ~misses ~entries ~bytes_written =
  let per x = float_of_int x /. float_of_int (Int.max 1 ops) in
  [
    ("cache.hit_frac", float_of_int hits /. float_of_int (Int.max 1 (hits + misses)));
    ("cache.hits_per_op", per hits);
    ("cache.misses_per_op", per misses);
    ("cache.entries", entries);
    ("cache.bytes_written_per_op", per bytes_written);
  ]

(* Run [n_blocks] blocks of [per_block] ops, calling [op block i],
   each op inside its op root span. Returns per-op latencies and
   per-block (ops, seconds). *)
let run_blocks ~name ~n_blocks ~per_block op =
  let lats = Array.make (n_blocks * per_block) 0.0 in
  let blocks =
    List.init n_blocks (fun b ->
        let t0 = Measure.now () in
        for i = 0 to per_block - 1 do
          let k = (b * per_block) + i in
          let (), dt = Measure.time (fun () -> Trace.span ~op:k ("op." ^ name) (fun () -> op b i)) in
          lats.(k) <- dt
        done;
        (per_block, Measure.now () -. t0))
  in
  (lats, blocks)

(* Throughput and median latency from the blocks. Stalls of a shared
   host only ever slow a block down, and they come in episodes of
   seconds, so the faster blocks estimate the program's own speed
   best: ops/s is the upper decile of per-block rates, the median
   latency the lower decile of per-block median latencies. Blocks are
   consecutive ranges of [latencies]. *)
let block_stats latencies blocks =
  let rates = Array.of_list (List.map (fun (n, dt) -> float_of_int n /. dt) blocks) in
  let _, medians =
    List.fold_left
      (fun (first, acc) (n, _) -> (first + n, Measure.median (Array.sub latencies first n) :: acc))
      (0, []) blocks
  in
  (Measure.quantile rates 0.9, Measure.quantile (Array.of_list medians) 0.1)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Per-layer metrics from the spans of a traced timed phase (spans that
   started in [t_lo, t_hi]): each layer's self time as a share of the
   time spent inside top-level spans, and the share of op time no
   layer span covers. Each workload adds its own counters. *)
let span_layers ~t_lo ~t_hi =
  let in_phase =
    List.filter (fun s -> s.Trace.t0 >= t_lo && s.Trace.t0 <= t_hi) (Trace.spans ())
  in
  let selfs = Trace.self_times in_phase in
  let busy =
    List.fold_left
      (fun acc s -> if s.Trace.parent < 0 then acc +. Trace.dur s else acc)
      0.0 in_phase
  in
  let share layer =
    List.fold_left (fun acc (s, st) -> if Trace.layer s = layer then acc +. st else acc) 0.0 selfs
    /. busy
  in
  [
    ("noise.time_share", share "noise");
    ("eqwave.time_share", share "eqwave");
    ("server.time_share", share "server");
    ("bench.time_share", share "op");
    ("trace.untracked_share", Trace.untracked_share selfs);
  ]

(* Self time per sim over the solve spans (those carrying spice deltas). *)
let ms_per_sim spans =
  let selfs = Trace.self_times spans in
  let t, n =
    List.fold_left
      (fun (t, n) (s, st) ->
        if s.Trace.args = [] then (t, n) else (t +. st, n +. Trace.arg "sims" s))
      (0.0, 0.0) selfs
  in
  if n > 0.0 then t /. n *. 1e3 else nan

let p50_note name unit scale xs =
  if Array.length xs = 0 then Printf.sprintf "%s n/a" name
  else
    Printf.sprintf "%s %.4g %s (n=%d)" name (Measure.median xs *. scale) unit
      (Array.length xs)
