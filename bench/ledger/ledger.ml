(* The repository benchmark.

     ledger.exe [--seed N] [--seconds S] [--trace 0|1]
       runs every workload in turn, each in a fresh child process, and
       prints their end-to-end metrics; with --trace 1 each workload
       runs again traced, and the tracing overhead is reported.
     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       runs one workload in this process. The last line of output is
       one JSON object: {"correct", "attempted", "failed", "metrics"},
       with the end-to-end metrics untraced and the per-layer metrics
       traced (the trace itself goes to .ledger/trace-NAME-seedN.json).
     ledger.exe compare BASE.jsonl NEW.jsonl
       judges paired runs (see pairs.sh) by the rule of the README,
       with the bounds of ./BENCHMARK.json.

   --toy shrinks every input for the [dune runtest] smoke. The exit
   code is non-zero when any correctness check fails. *)

let workloads = [ Table1.workload; Gamma.workload; Worstcase.workload; Serve.workload ]

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "op/s"); ("latency_p50_ms", "ms"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [
    ("spice.sims_per_op", "count/op");
    ("spice.steps_per_op", "count/op");
    ("spice.newton_iters_per_op", "count/op");
    ("spice.factorizations_per_op", "count/op");
    ("spice.batched_frac", "frac");
    ("noise.time_share", "frac");
    ("noise.alignments_solved_per_op", "count/op");
    ("noise.solved_frac", "frac");
    ("eqwave.time_share", "frac");
    ("eqwave.rho_share_sgdp", "frac");
    ("eqwave.sgdp_over_wls5", "ratio");
    ("eqwave.unsupported_frac", "frac");
    ("eqwave.rung0_frac", "frac");
    ("cache.hit_frac", "frac");
    ("cache.hits_per_op", "count/op");
    ("cache.misses_per_op", "count/op");
    ("cache.entries", "count");
    ("cache.bytes_written_per_op", "B/op");
    ("resilience.retries", "count");
    ("resilience.failures", "count");
    ("server.time_share", "frac");
    ("server.transport_share", "frac");
    ("server.reqs_per_batch", "ratio");
    ("server.journal_appended_per_op", "count/op");
    ("server.journal_deduped", "count");
    ("bench.time_share", "frac");
    ("trace.ops_per_s", "op/s");
  ]

let result_json ~correct ~attempted ~failed metrics =
  let open Server.Json in
  let num v = Num (if Float.is_finite v then v else 0.0) in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Num (float_of_int attempted));
         ("failed", Num (float_of_int failed));
         ( "metrics",
           Obj (List.map (fun (name, unit_, v) -> (name, Obj [ ("value", num v); ("unit", Str unit_) ])) metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* One workload, in this process. *)

let run_workload (w : Workload.t) (cfg : Workload.cfg) ~trace =
  let setups = if cfg.toy then 1 else 3 in
  (* Set up several times on fresh state and report the median; the
     last set-up is the one the timed phase runs on. *)
  let rec set_up k times =
    let prepared, dt = Measure.time (fun () -> w.prepare cfg) in
    if k = 1 then (prepared, dt :: times)
    else begin
      prepared.discard ();
      Gc.full_major ();
      set_up (k - 1) (dt :: times)
    end
  in
  let prepared, setup_times = set_up setups [] in
  (* The memory metric covers the timed phase: compact away the
     set-ups' garbage, then restart the high-water mark. *)
  Gc.compact ();
  Measure.reset_peak_rss ();
  Trace.enabled := trace;
  let o = prepared.run () in
  Trace.enabled := false;
  let ops = Array.length o.latencies in
  let ops_per_s, block_p50 = Workload.block_stats o.latencies o.blocks in
  let latency_p50_ms = block_p50 *. 1e3 in
  let lat = Measure.sorted o.latencies in
  let ms q = Measure.quantile_sorted lat q *. 1e3 in
  let setup_s = Measure.median (Array.of_list setup_times) in
  Printf.printf "== %s  seed %d  (%s)\n" w.name cfg.seed (if trace then "traced" else "untraced");
  Printf.printf "setup_s %.4f  (median of %s)\n" setup_s
    (String.concat ", " (List.rev_map (Printf.sprintf "%.4f") setup_times));
  Printf.printf "ops %d %s in %d blocks, %.3f s\n" ops w.unit_ (List.length o.blocks) o.elapsed;
  Printf.printf "ops_per_s %.4f  (upper decile of block rates; whole phase %.4f)\n" ops_per_s
    (float_of_int ops /. o.elapsed);
  Printf.printf "block rates %s\n"
    (String.concat " " (List.map (fun (n, dt) -> Printf.sprintf "%.4g" (float_of_int n /. dt)) o.blocks));
  Printf.printf "latency_p50_ms %.4f  (lower decile of block medians; whole phase %.4f)\n"
    latency_p50_ms (ms 0.5);
  Printf.printf "ops %d:" ops;
  List.iter
    (fun (q, name) ->
      if Measure.tail_ok ops q then Printf.printf "  %s %.4f" name (ms q)
      else Printf.printf "  %s n/a (ops %d)" name ops)
    [ (0.95, "latency_p95_ms"); (0.99, "latency_p99_ms") ];
  print_newline ();
  Printf.printf "peak_rss_mb %.1f\n" o.peak_rss_mb;
  Printf.printf "failed_frac %.6f  (%d of %d)\n"
    (float_of_int o.failed /. float_of_int (Int.max 1 ops))
    o.failed ops;
  List.iter (fun l -> Printf.printf "  %s\n" l) o.notes;
  Printf.printf "digest %s\n" o.digest;
  let checks =
    if not trace then o.checks
    else
      let untracked = Option.value (List.assoc_opt "trace.untracked_share" o.layer) ~default:0.0 in
      Printf.printf "trace.untracked_share %.4f  (op time outside every layer span)\n" untracked;
      o.checks @ [ ("trace.layer_spans_cover_95pct_of_ops", untracked <= 0.05) ]
  in
  List.iter (fun (name, ok) -> Printf.printf "check %-44s %s\n" name (if ok then "ok" else "FAILED")) checks;
  let correct = List.for_all snd checks in
  let metrics =
    if trace then begin
      let dir = ".ledger" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" w.name cfg.seed) in
      Trace.write path (Trace.spans ());
      Printf.printf "trace %s\n" path;
      let layer = ("trace.ops_per_s", ops_per_s) :: o.layer in
      List.map
        (fun (name, unit_) ->
          let v = Option.value (List.assoc_opt name layer) ~default:0.0 in
          Printf.printf "  %-32s %.6g %s\n" name v unit_;
          (name, unit_, v))
        per_layer
    end
    else
      List.map2
        (fun (name, unit_) v -> (name, unit_, v))
        end_to_end
        [ setup_s; ops_per_s; latency_p50_ms; o.peak_rss_mb ]
  in
  print_endline (result_json ~correct ~attempted:ops ~failed:o.failed metrics);
  correct

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process. *)

let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       print_endline ("  | " ^ l);
       lines := l :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, !lines)

let find_line prefix lines =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    lines

let metric lines name =
  match lines with
  | [] -> nan
  | last :: _ -> (
      match Server.Json.parse last with
      | Ok doc ->
          Option.value ~default:nan
            (Option.bind (Server.Json.member "metrics" doc) (fun m ->
                 Option.bind (Server.Json.member name m) (fun v ->
                     Option.bind (Server.Json.member "value" v) Server.Json.to_float)))
      | Error _ -> nan)

let run_all (cfg : Workload.cfg) ~trace =
  let common =
    [ "--seed"; string_of_int cfg.seed; "--seconds"; Printf.sprintf "%g" cfg.seconds ]
    @ if cfg.toy then [ "--toy" ] else []
  in
  let ok = ref true in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let run t = run_child ([ "--workload"; w.name; "--trace"; if t then "1" else "0" ] @ common) in
        let ok_u, plain = run false in
        ok := !ok && ok_u;
        let traced =
          if trace then begin
            let ok_t, lines = run true in
            (* The traced run must compute the same answers. *)
            let same = find_line "digest " lines = find_line "digest " plain in
            if not same then Printf.printf "  %s: traced digest differs from untraced\n" w.name;
            ok := !ok && ok_t && same;
            Some lines
          end
          else None
        in
        (w, plain, traced))
      workloads
  in
  Printf.printf "\n%-10s %10s %12s %16s %13s %11s" "workload" "setup_s" "ops_per_s" "latency_p50_ms"
    "peak_rss_mb" "digest";
  if trace then Printf.printf " %16s" "trace_overhead";
  print_newline ();
  List.iter
    (fun ((w : Workload.t), plain, traced) ->
      let m = metric plain in
      Printf.printf "%-10s %10.4f %12.4f %16.4f %13.1f %11s" w.name (m "setup_s") (m "ops_per_s")
        (m "latency_p50_ms") (m "peak_rss_mb")
        (match find_line "digest " plain with Some d -> String.sub d 0 (Int.min 8 (String.length d)) | None -> "-");
      (match traced with
      | Some lines ->
          Printf.printf " %15.1f%%" (100.0 *. (1.0 -. (metric lines "trace.ops_per_s" /. m "ops_per_s")))
      | None -> ());
      print_newline ())
    rows;
  if trace then
    print_endline
      "trace_overhead is 1 - traced/untraced ops_per_s. table1's traced run replays run_table's\n\
       calls by hand, so its figure also holds the difference between run_table and the replay.";
  Printf.printf "%s\n" (if !ok then "all checks passed" else "CHECKS FAILED");
  !ok

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ledger.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--toy]\n\
    \       ledger.exe compare BASE.jsonl NEW.jsonl";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; base; fresh ] -> exit (Compare.main ~base ~fresh)
  | _ :: "compare" :: _ -> usage ()
  | _ :: args ->
      let workload = ref None and seed = ref 0 and seconds = ref 15.0 and trace = ref false
      and toy = ref false in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
            workload := Some w;
            parse rest
        | "--seed" :: n :: rest ->
            seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := (match float_of_string_opt s with Some s when s >= 0.0 -> s | _ -> usage ());
            parse rest
        | "--trace" :: t :: rest ->
            trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
            parse rest
        | "--toy" :: rest ->
            toy := true;
            parse rest
        | _ -> usage ()
      in
      parse args;
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
      let cfg = { Workload.seed = !seed; seconds = !seconds; toy = !toy } in
      let ok =
        match !workload with
        | None -> run_all cfg ~trace:!trace
        | Some name -> (
            match List.find_opt (fun (w : Workload.t) -> w.name = name) workloads with
            | Some w -> run_workload w cfg ~trace:!trace
            | None -> usage ())
      in
      exit (if ok then 0 else 1)
  | [] -> usage ()
