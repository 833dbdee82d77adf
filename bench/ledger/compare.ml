(* [ledger.exe compare BASE.jsonl NEW.jsonl]: the small-sandbox rule
   for judging a change against its parent, with the bounds of
   ./BENCHMARK.json.

   Each input line is {"workload": W, "seed": N, "digest": D,
   "result": R}: R is the last output line of one untraced run and D
   the digest of its answers (pairs.sh writes them). Runs pair up by
   workload and seed. A pair whose digests differ computed different
   answers; that, or any run with "correct": false, is a correctness
   failure. Per workload, the change may fail no more ops than the
   parent. For every workload x end-to-end metric:
   - gain        the change won >= 9/10 of the pairs (ties count for
                 neither), the medians differ by more than the parent's
                 interquartile range, every pair computed the same
                 answers and the change failed no more ops;
   - unresolved  either side's spread (IQR / median) exceeds the bound,
                 unless every run of the change beats every run of the
                 parent;
   - regression  the change's median is worse than the parent's by more
                 than the bound;
   - same        otherwise.
   The exit code is 1 on a correctness failure, more failed ops or a
   regression. *)

let fail fmt = Printf.ksprintf failwith fmt

let read_json path =
  match Server.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> fail "%s: %s" path e

let field name doc =
  match Server.Json.member name doc with Some v -> v | None -> fail "missing field %s" name

let str name doc = match Server.Json.to_str (field name doc) with Some s -> s | None -> fail "%s: not a string" name
let num name doc = match Server.Json.to_float (field name doc) with Some x -> x | None -> fail "%s: not a number" name

type run = { metrics : (string * float) list; failed : int; digest : string }

(* ((workload, seed), run) per line, and whether every run's result was
   [correct]; incorrect runs are reported. *)
let read_runs path =
  let all_correct = ref true in
  let runs =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Server.Json.parse line with
           | Error e -> fail "%s: %s" path e
           | Ok doc ->
               let result = field "result" doc in
               let metrics =
                 match field "metrics" result with
                 | Server.Json.Obj kvs -> List.map (fun (k, v) -> (k, num "value" v)) kvs
                 | _ -> fail "%s: metrics is not an object" path
               in
               let key = (str "workload" doc, int_of_float (num "seed" doc)) in
               if Server.Json.to_bool (field "correct" result) <> Some true then begin
                 Printf.printf "%s: %s seed %d ran incorrectly\n" path (fst key) (snd key);
                 all_correct := false
               end;
               (key, { metrics; failed = int_of_float (num "failed" result); digest = str "digest" doc }))
  in
  (runs, !all_correct)

type bound = { name : string; lower_better : bool; bound : float }

let read_bounds path =
  match Server.Json.to_list (field "end_to_end" (read_json path)) with
  | None -> fail "%s: end_to_end is not a list" path
  | Some ms ->
      List.map
        (fun m -> { name = str "name" m; lower_better = str "better" m = "lower"; bound = num "bound" m })
        ms

let verdict b base fresh =
  let n = Array.length base in
  let mb = Measure.median base and mn = Measure.median fresh in
  let q1b, q3b = Measure.quartiles base and q1n, q3n = Measure.quartiles fresh in
  let better x y = if b.lower_better then x < y else x > y in
  let wins = ref 0 in
  Array.iteri (fun i x -> if better fresh.(i) x then incr wins) base;
  let spread_b = (q3b -. q1b) /. abs_float mb and spread_n = (q3n -. q1n) /. abs_float mn in
  let worse = (if b.lower_better then mn -. mb else mb -. mn) /. abs_float mb in
  let dominates =
    Array.for_all (fun x -> Array.for_all (fun y -> better x y) base) fresh
  in
  let v =
    if n < 10 then "too few pairs"
    else if 10 * !wins >= 9 * n && abs_float (mn -. mb) > q3b -. q1b && better mn mb then "gain"
    else if (spread_b > b.bound || spread_n > b.bound) && not dominates then "unresolved"
    else if worse > b.bound then "regression"
    else "same"
  in
  (mb, q1b, q3b, mn, q1n, q3n, !wins, v)

let main ~base ~fresh =
  let bounds = read_bounds "BENCHMARK.json" in
  let base, base_ok = read_runs base and fresh, fresh_ok = read_runs fresh in
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) base) in
  Printf.printf "%-10s %-16s %6s %12s %25s %12s %25s %6s  %s\n" "workload" "metric" "pairs" "base_med"
    "base_q1..q3" "new_med" "new_q1..q3" "wins" "verdict";
  let bad = ref (not (base_ok && fresh_ok)) in
  List.iter
    (fun w ->
      (* (seed, parent run, changed run) *)
      let pairs =
        List.filter_map
          (fun ((w', seed), rb) ->
            if w' <> w then None
            else Option.map (fun rn -> (seed, rb, rn)) (List.assoc_opt (w, seed) fresh))
          base
      in
      let answers_differ =
        List.fold_left
          (fun differ (seed, rb, rn) ->
            if rb.digest = rn.digest then differ
            else begin
              Printf.printf "%s seed %d: the change computed different answers (digest %s, parent %s)\n"
                w seed rn.digest rb.digest;
              true
            end)
          false pairs
      in
      if answers_differ then bad := true;
      let failed side = List.fold_left (fun n p -> n + (side p).failed) 0 pairs in
      let failed_base = failed (fun (_, rb, _) -> rb) and failed_new = failed (fun (_, _, rn) -> rn) in
      let more_failures = failed_new > failed_base in
      if more_failures then bad := true;
      Printf.printf "%-10s %-16s %6d %12d %25s %12d %25s %6s  %s\n" w "failed (total)" (List.length pairs)
        failed_base "" failed_new "" ""
        (if more_failures then "regression" else "same");
      List.iter
        (fun b ->
          let values side =
            Array.of_list (List.filter_map (fun p -> List.assoc_opt b.name (side p).metrics) pairs)
          in
          let vb = values (fun (_, rb, _) -> rb) and vn = values (fun (_, _, rn) -> rn) in
          if Array.length vb = Array.length vn && Array.length vb > 0 then begin
            let mb, q1b, q3b, mn, q1n, q3n, wins, v = verdict b vb vn in
            let v =
              match v with
              | "gain" when answers_differ -> "no gain: answers differ"
              | "gain" when more_failures -> "no gain: more failed ops"
              | v -> v
            in
            if v = "regression" then bad := true;
            Printf.printf "%-10s %-16s %6d %12.4f %12.4f..%-12.4f %12.4f %12.4f..%-12.4f %6d  %s\n" w
              b.name (Array.length vb) mb q1b q3b mn q1n q3n wins v
          end)
        bounds)
    workloads;
  if !bad then 1 else 0
