type t = {
  m : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  timers : (string, float ref) Hashtbl.t;
}

let create () =
  { m = Mutex.create (); counters = Hashtbl.create 32; timers = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add t.counters name c;
      c

let timer_cell t name =
  match Hashtbl.find_opt t.timers name with
  | Some c -> c
  | None ->
      let c = ref 0.0 in
      Hashtbl.add t.timers name c;
      c

let incr ?(n = 1) t name =
  locked t (fun () ->
      let c = counter_cell t name in
      c := !c + n)

let set t name v = locked t (fun () -> counter_cell t name := v)

let add_time t name dt =
  locked t (fun () ->
      let c = timer_cell t name in
      c := !c +. dt)

let time t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add_time t name (Unix.gettimeofday () -. t0))
    f

let sorted tbl get =
  Hashtbl.fold (fun k v acc -> (k, get v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = locked t (fun () -> sorted t.counters ( ! ))
let timers t = locked t (fun () -> sorted t.timers ( ! ))

let capture_spice ?since t =
  let s = Spice.Transient.Stats.snapshot () in
  let s =
    match since with
    | None -> s
    | Some base -> Spice.Transient.Stats.diff s base
  in
  set t "spice.sims" s.Spice.Transient.Stats.sims;
  set t "spice.steps" s.Spice.Transient.Stats.steps;
  set t "spice.skipped_steps" s.Spice.Transient.Stats.skipped_steps;
  set t "spice.newton_iters" s.Spice.Transient.Stats.newton_iters;
  set t "spice.bisections" s.Spice.Transient.Stats.bisections;
  set t "spice.gmin_retries" s.Spice.Transient.Stats.gmin_retries;
  set t "spice.rejected_steps" s.Spice.Transient.Stats.rejected_steps;
  set t "spice.lte_rejections" s.Spice.Transient.Stats.lte_rejections;
  set t "spice.injected_faults" s.Spice.Transient.Stats.injected_faults;
  set t "spice.deadline_hits" s.Spice.Transient.Stats.deadline_hits;
  set t "spice.factorizations" s.Spice.Transient.Stats.factorizations;
  set t "spice.jacobian_reuses" s.Spice.Transient.Stats.jac_reuses

let capture_cache t cache =
  set t "cache.hits" (Cache.hits cache);
  set t "cache.disk_hits" (Cache.disk_hits cache);
  set t "cache.misses" (Cache.misses cache);
  set t "cache.read_errors" (Cache.read_errors cache);
  set t "cache.write_errors" (Cache.write_errors cache);
  set t "cache.resident" (Cache.length cache);
  set t "cache.bytes_written" (Cache.bytes_written cache);
  set t "cache.disk_bytes" (Cache.disk_bytes cache);
  set t "cache.evictions" (Cache.evictions cache);
  match Cache.breaker_state cache with
  | None -> ()
  | Some st ->
      (* 0 = closed, 1 = open, 2 = half-open — a gauge operators can
         alert on. *)
      set t "cache.breaker_state"
        (match st with
        | Cache.Breaker.Closed -> 0
        | Cache.Breaker.Open -> 1
        | Cache.Breaker.Half_open -> 2);
      set t "cache.breaker_opens" (Cache.breaker_opens cache);
      set t "cache.breaker_recloses" (Cache.breaker_recloses cache);
      set t "cache.breaker_short_circuits"
        (Cache.breaker_short_circuits cache)

let capture_resilience ?since t =
  let s = Resilience.Stats.snapshot () in
  let s =
    match since with None -> s | Some base -> Resilience.Stats.diff s base
  in
  set t "resilience.solves" s.Resilience.Stats.solves;
  set t "resilience.attempts" s.Resilience.Stats.attempts;
  set t "resilience.retries" s.Resilience.Stats.retries;
  set t "resilience.recoveries" s.Resilience.Stats.recoveries;
  set t "resilience.failures" s.Resilience.Stats.failures;
  set t "resilience.rejected_waveforms" s.Resilience.Stats.rejected_waveforms

let capture_guard ?since t =
  let s = Guard.Stats.snapshot () in
  let s = match since with None -> s | Some base -> Guard.Stats.diff s base in
  set t "guard.checked" s.Guard.Stats.checked;
  set t "guard.agreements" s.Guard.Stats.agreements;
  set t "guard.disagreements" s.Guard.Stats.disagreements;
  set t "guard.errors" s.Guard.Stats.errors;
  (* High-water delay delta, expressed in femtoseconds so it fits the
     integer counter table without losing the interesting digits. *)
  set t "guard.max_delta_fs"
    (int_of_float (Float.round (s.Guard.Stats.max_delta_s *. 1e15)))

let pp_report ppf t =
  let cs = counters t and ts = timers t in
  Format.fprintf ppf "@[<v>runtime metrics:@,";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-28s %12d@," k v) cs;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %-28s %12.3f s@," k v)
    ts;
  if cs = [] && ts = [] then Format.fprintf ppf "  (empty)@,";
  Format.fprintf ppf "@]"

(* Prometheus text exposition. Registry names are dotted identifiers,
   optionally carrying a literal label suffix in braces
   ("server.latency_ms_bucket{le=\"5\"}"); the label part is emitted
   verbatim while the base name is sanitized into a metric name. *)

let prom_sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let prom_split name =
  match String.index_opt name '{' with
  | Some i when name.[String.length name - 1] = '}' ->
      (String.sub name 0 i, String.sub name i (String.length name - i))
  | _ -> (name, "")

let prom_type base =
  let counterish suffix =
    String.length base >= String.length suffix
    && String.sub base
         (String.length base - String.length suffix)
         (String.length suffix)
       = suffix
  in
  if List.exists counterish [ "_total"; "_bucket"; "_count"; "_sum" ] then
    "counter"
  else "gauge"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  let family base =
    if not (Hashtbl.mem seen base) then begin
      Hashtbl.add seen base ();
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" base (prom_type base))
    end
  in
  List.iter
    (fun (name, v) ->
      let base, labels = prom_split name in
      let base = "sta_" ^ prom_sanitize base in
      family base;
      Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base labels v))
    (counters t);
  List.iter
    (fun (name, v) ->
      let base, labels = prom_split name in
      let base = "sta_" ^ prom_sanitize base ^ "_seconds" in
      family base;
      Buffer.add_string buf (Printf.sprintf "%s%s %.6f\n" base labels v))
    (timers t);
  Buffer.contents buf
