(* Spans recorded by the benchmark around each call it makes into a
   layer's public functions. Off by default: a disabled [span] costs
   one branch. Spans are kept in memory and written once, at exit, as
   Chrome trace-event JSON (Perfetto and chrome://tracing open it).

   A span's layer is its name up to the first dot ("noise.noisy" ->
   "noise"); the op root span of every timed operation is named
   "op.<workload>". Solve spans can carry the [Spice.Transient.Stats]
   delta they caused, which is only attributable because the workloads
   solve on a single domain. All spans are opened on the main thread. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  op : int;  (** -1 outside any op *)
  t0 : float;
  t1 : float;
  args : (string * float) list;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0

(* Open spans: (span id, op id), innermost first. *)
let stack : (int * int) list ref = ref []

let spice_delta a b =
  let d = Spice.Transient.Stats.diff b a in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("sims", d.sims);
      ("steps", d.steps);
      ("newton_iters", d.newton_iters);
      ("factorizations", d.factorizations);
      ("batched", d.batched_solves);
      ("peeled", d.peeled_solves);
    ]

let span ?op ?(spice = false) name f =
  if not !enabled then f ()
  else begin
    let parent, inherited = match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1) in
    let op = Option.value op ~default:inherited in
    let id = !next_id in
    incr next_id;
    stack := (id, op) :: !stack;
    let before = if spice then Some (Spice.Transient.Stats.snapshot ()) else None in
    let t0 = Measure.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Measure.now () in
        let args =
          match before with
          | Some a -> spice_delta a (Spice.Transient.Stats.snapshot ())
          | None -> []
        in
        stack := List.tl !stack;
        recorded := { id; parent; name; op; t0; t1; args } :: !recorded)
  end

let spans () = List.rev !recorded
let dur s = s.t1 -. s.t0
let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Self time: the span's duration minus the time its children cover.
   Children of one span run one after another, so they never overlap. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    spans

(* The share of the ops' time that no layer span covers: the op roots'
   own self times over their durations, summed over every op. Self times
   add up to the root's duration by construction, so this is what tells
   whether the layer spans account for an op's work. Spans outside any
   op (a sweep's prewarm, post-run probes) are skipped. *)
let untracked_share selfs =
  let own, total =
    List.fold_left
      (fun (own, total) (s, st) ->
        if s.parent >= 0 || s.op < 0 then (own, total) else (own +. st, total +. dur s))
      (0.0, 0.0) selfs
  in
  if total > 0.0 then own /. total else 0.0

let durations name spans =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (dur s) else None) spans)

let arg key s = Option.value (List.assoc_opt key s.args) ~default:0.0

let write path spans =
  let t_base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let str x = Server.Json.to_string (Server.Json.Str x) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          let args =
            ("op", float_of_int s.op) :: ("id", float_of_int s.id)
            :: ("parent", float_of_int s.parent) :: s.args
          in
          Printf.fprintf oc
            "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
            (str s.name) (str (layer s)) ((s.t0 -. t_base) *. 1e6) (dur s *. 1e6)
            (String.concat ","
               (List.map (fun (k, v) -> str k ^ ":" ^ Server.Json.num_to_string v) args)))
        spans;
      output_string oc "]}\n")
