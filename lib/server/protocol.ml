let version = "1.2.0"

(* Compatibility is decided on the major component alone: a client may
   be older or newer within a major series (fields it doesn't know are
   ignored; fields it omits have defaults), but across majors the
   framing or field semantics may have changed, so the request is
   rejected before any parameter is interpreted. *)
let major_of v =
  match String.index_opt v '.' with
  | Some i -> int_of_string_opt (String.sub v 0 i)
  | None -> int_of_string_opt v

type parse_error =
  | Bad_request of string
  | Version_mismatch of { id : int; got : string }

type query =
  | Ping
  | Stats
  | Delay of { config : string; tau : float; technique : string }
  | Gamma of { config : string; tau : float; ladder : string list option }
  | Table1 of {
      config : string;
      cases : int;
      techniques : string list option;
      samples : int option;
      prune_tol_ps : float;
    }
  | Montecarlo of {
      config : string;
      samples : int;
      seed : int;
      prune_tol_ps : float;
    }

type request = { id : int; query : query; deadline_ms : float option }

let scenario_of_name s =
  match String.lowercase_ascii s with
  | "1" | "i" -> Ok Noise.Scenario.config_i
  | "2" | "ii" -> Ok Noise.Scenario.config_ii
  | "i_buffer" | "buffer" -> Ok Noise.Scenario.config_i_buffer
  | other -> Error (Printf.sprintf "unknown configuration %S" other)

(* Keep server-side sweep requests bounded: a single client must not be
   able to ask for hours of compute in one frame. *)
let max_cases = 500
let max_samples = 1000

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

let field name v = Json.member name v

let str_field ?default name v =
  match field name v with
  | Some j -> (
      match Json.to_str j with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must be a string" name))
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

let float_field name v =
  match field name v with
  | Some j -> (
      match Json.to_float j with
      | Some x when Float.is_finite x -> Ok x
      | _ -> Error (Printf.sprintf "field %S must be a finite number" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let pos_float_field name v =
  match float_field name v with
  | Ok x when x > 0.0 -> Ok x
  | Ok _ -> Error (Printf.sprintf "field %S must be positive" name)
  | Error _ as e -> e

let int_field ?default ~lo ~hi name v =
  match field name v with
  | Some j -> (
      match Json.to_int j with
      | Some n when n >= lo && n <= hi -> Ok n
      | Some n ->
          Error
            (Printf.sprintf "field %S = %d outside [%d, %d]" name n lo hi)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

(* Optional branch-and-bound slack; absent (or 0) keeps the exhaustive
   sweep, so pre-1.2 clients see unchanged behavior. *)
let prune_field v =
  match field "prune_tol_ps" v with
  | None -> Ok 0.0
  | Some j -> (
      match Json.to_float j with
      | Some x when Float.is_finite x && x >= 0.0 -> Ok x
      | _ -> Error "field \"prune_tol_ps\" must be a non-negative number")

let names_field name v =
  match field name v with
  | None -> Ok None
  | Some j -> (
      match Json.str_list j with
      | Some l when l <> [] -> Ok (Some l)
      | _ ->
          Error
            (Printf.sprintf "field %S must be a non-empty string array" name))

let ( let* ) = Result.bind

let check_config config =
  let* (_ : Noise.Scenario.t) = scenario_of_name config in
  Ok ()

let parse_query op v =
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "delay" ->
      let* config = str_field "config" v in
      let* () = check_config config in
      let* tau_ps = pos_float_field "tau_ps" v in
      let* technique = str_field ~default:"SGDP" "technique" v in
      Ok (Delay { config; tau = tau_ps *. 1e-12; technique })
  | "gamma" ->
      let* config = str_field "config" v in
      let* () = check_config config in
      let* tau_ps = pos_float_field "tau_ps" v in
      let* ladder = names_field "ladder" v in
      Ok (Gamma { config; tau = tau_ps *. 1e-12; ladder })
  | "table1" ->
      let* config = str_field "config" v in
      let* () = check_config config in
      let* cases = int_field ~lo:1 ~hi:max_cases "cases" v in
      let* techniques = names_field "techniques" v in
      let* samples =
        match field "samples" v with
        | None -> Ok None
        | Some _ ->
            let* p = int_field ~lo:1 ~hi:max_samples "samples" v in
            Ok (Some p)
      in
      let* prune_tol_ps = prune_field v in
      Ok (Table1 { config; cases; techniques; samples; prune_tol_ps })
  | "montecarlo" ->
      let* config = str_field "config" v in
      let* () = check_config config in
      let* samples = int_field ~lo:1 ~hi:max_samples "samples" v in
      let* seed = int_field ~default:42 ~lo:0 ~hi:max_int "seed" v in
      let* prune_tol_ps = prune_field v in
      Ok (Montecarlo { config; samples; seed; prune_tol_ps })
  | other -> Error (Printf.sprintf "unknown op %S" other)

let parse_request text =
  match Json.parse text with
  | Error e -> Error (Bad_request ("invalid JSON: " ^ e))
  | Ok v -> (
      let id =
        Option.value ~default:0 (Option.bind (field "id" v) Json.to_int)
      in
      let tag r =
        (* Attach the id we did manage to extract so the error response
           still correlates with the request. *)
        Result.map_error
          (fun e -> Bad_request (Printf.sprintf "[id %d] %s" id e))
          r
      in
      let body () =
        tag
          (let* op = str_field "op" v in
           let* query = parse_query op v in
           let* deadline_ms =
             match field "deadline_ms" v with
             | None -> Ok None
             | Some j -> (
                 match Json.to_float j with
                 | Some ms when Float.is_finite ms && ms > 0.0 ->
                     Ok (Some ms)
                 | _ -> Error "field \"deadline_ms\" must be positive")
           in
           Ok { id; query; deadline_ms })
      in
      (* Version gate first: an incompatible client's parameters must
         not be interpreted at all. Requests without a version are
         accepted (pre-1.1 clients never sent one). *)
      match field "version" v with
      | None -> body ()
      | Some (Json.Str got)
        when major_of got <> None && major_of got = major_of version ->
          body ()
      | Some j ->
          let got =
            match Json.to_str j with Some s -> s | None -> Json.to_string j
          in
          Error (Version_mismatch { id; got }))

let request_to_json { id; query; deadline_ms } =
  let base =
    match query with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Delay { config; tau; technique } ->
        [
          ("op", Json.Str "delay");
          ("config", Json.Str config);
          ("tau_ps", Json.Num (tau *. 1e12));
          ("technique", Json.Str technique);
        ]
    | Gamma { config; tau; ladder } ->
        [
          ("op", Json.Str "gamma");
          ("config", Json.Str config);
          ("tau_ps", Json.Num (tau *. 1e12));
        ]
        @ (match ladder with
          | Some names ->
              [ ("ladder", Json.Arr (List.map (fun s -> Json.Str s) names)) ]
          | None -> [])
    | Table1 { config; cases; techniques; samples; prune_tol_ps } ->
        [
          ("op", Json.Str "table1");
          ("config", Json.Str config);
          ("cases", Json.Num (float_of_int cases));
        ]
        @ (match techniques with
          | Some names ->
              [
                ( "techniques",
                  Json.Arr (List.map (fun s -> Json.Str s) names) );
              ]
          | None -> [])
        @ (match samples with
          | Some p -> [ ("samples", Json.Num (float_of_int p)) ]
          | None -> [])
        @
        if prune_tol_ps > 0.0 then
          [ ("prune_tol_ps", Json.Num prune_tol_ps) ]
        else []
    | Montecarlo { config; samples; seed; prune_tol_ps } ->
        [
          ("op", Json.Str "montecarlo");
          ("config", Json.Str config);
          ("samples", Json.Num (float_of_int samples));
          ("seed", Json.Num (float_of_int seed));
        ]
        @
        if prune_tol_ps > 0.0 then
          [ ("prune_tol_ps", Json.Num prune_tol_ps) ]
        else []
  in
  let tail =
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Num ms) ]
    | None -> []
  in
  Json.Obj
    ((("id", Json.Num (float_of_int id))
      :: ("version", Json.Str version) :: base)
    @ tail)

(* ------------------------------------------------------------------ *)
(* Batching class                                                      *)

type klass = Inline | Single of string | Sweep

let klass = function
  | Ping | Stats -> Inline
  | Delay { config; _ } | Gamma { config; _ } -> (
      match scenario_of_name config with
      | Ok scen -> Single scen.Noise.Scenario.name
      | Error _ -> Single config)
  | Table1 _ | Montecarlo _ -> Sweep

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let ps s = Json.Num (s *. 1e12)
let num v = Json.Num v
let opt f = function Some v -> f v | None -> Json.Null

let failure_json f =
  Json.Obj
    [
      ("code", Json.Str (Runtime.Failure.code f));
      ("message", Json.Str (Runtime.Failure.to_string f));
      ("recoverable", Json.Bool (Runtime.Failure.is_recoverable f));
    ]

let find_technique name =
  match Eqwave.Registry.find name with
  | t -> Ok t
  | exception Not_found ->
      Error
        (Runtime.Failure.Unsupported
           {
             what =
               Printf.sprintf "unknown technique %s (have: %s)" name
                 (String.concat ", " Eqwave.Registry.names);
           })

let find_scenario config =
  match scenario_of_name config with
  | Ok scen -> Ok scen
  | Error msg -> Error (Runtime.Failure.Unsupported { what = msg })

let find_ladder = function
  | None -> Ok Eqwave.Ladder.default
  | Some names -> (
      match Eqwave.Ladder.of_names names with
      | l -> Ok l
      | exception Invalid_argument msg ->
          Error (Runtime.Failure.Unsupported { what = msg }))

let mapping_json (m : (Noise.Eval.degradation, Runtime.Failure.t) result) =
  match m with
  | Ok d ->
      Json.Obj
        [
          ("technique", Json.Str d.Noise.Eval.technique);
          ("rung", num (float_of_int d.Noise.Eval.rung));
          ("score_v", num d.Noise.Eval.score_v);
        ]
  | Error f -> failure_json f

let delay_body scen ~tau ~technique (case : Noise.Eval.case_eval) =
  let m =
    match case.Noise.Eval.metrics with
    | m :: _ -> m
    | [] -> assert false (* evaluate_case returns one entry per technique *)
  in
  Json.Obj
    [
      ("config", Json.Str scen.Noise.Scenario.name);
      ("tau_ps", ps tau);
      ("technique", Json.Str technique);
      ("delay_ref_ps", ps case.Noise.Eval.delay_ref);
      ("delay_est_ps", opt ps m.Noise.Eval.delay_est);
      ("delay_err_ps", opt ps m.Noise.Eval.delay_err);
      ("out_arrival_err_ps", opt ps m.Noise.Eval.out_arrival_err);
      ("out_slew_err_ps", opt ps m.Noise.Eval.out_slew_err);
      ("failure", opt failure_json m.Noise.Eval.failure);
      ("mapping", mapping_json case.Noise.Eval.mapping);
    ]

let gamma_body scen ~tau ladder (o : Eqwave.Ladder.outcome) =
  let th = Device.Process.thresholds scen.Noise.Scenario.proc in
  Json.Obj
    [
      ("config", Json.Str scen.Noise.Scenario.name);
      ("tau_ps", ps tau);
      ("ladder", Json.Arr (List.map (fun s -> Json.Str s) (Eqwave.Ladder.names ladder)));
      ("technique", Json.Str o.Eqwave.Ladder.technique);
      ("rung", num (float_of_int o.Eqwave.Ladder.rung));
      ("score_v", num o.Eqwave.Ladder.score_v);
      ("arrival_ps", ps (Waveform.Ramp.arrival o.Eqwave.Ladder.ramp th));
      ("slew_ps", ps (Waveform.Ramp.slew o.Eqwave.Ladder.ramp th));
      ( "direction",
        Json.Str
          (match Waveform.Ramp.direction o.Eqwave.Ladder.ramp with
          | Waveform.Wave.Rising -> "rising"
          | Waveform.Wave.Falling -> "falling") );
      ( "skipped",
        Json.Arr
          (List.map
             (fun (s : Eqwave.Ladder.skip) ->
               Json.Obj
                 [
                   ("technique", Json.Str s.Eqwave.Ladder.technique);
                   ("reason", Json.Str s.Eqwave.Ladder.reason);
                 ])
             o.Eqwave.Ladder.skipped) );
    ]

let row_json (r : Noise.Eval.row) =
  Json.Obj
    [
      ("name", Json.Str r.Noise.Eval.name);
      ("max_abs_ps", num r.Noise.Eval.max_abs_ps);
      ("avg_abs_ps", num r.Noise.Eval.avg_abs_ps);
      ("n_cases", num (float_of_int r.Noise.Eval.n_cases));
      ("n_failed", num (float_of_int r.Noise.Eval.n_failed));
    ]

let degradation_json (d : Noise.Eval.degradation_summary) =
  Json.Obj
    [
      ("ladder", Json.Arr (List.map (fun s -> Json.Str s) d.Noise.Eval.ladder));
      ( "rung_counts",
        Json.Arr
          (Array.to_list
             (Array.map (fun n -> num (float_of_int n)) d.Noise.Eval.rung_counts))
      );
      ("n_exhausted", num (float_of_int d.Noise.Eval.n_exhausted));
      ("n_unmapped", num (float_of_int d.Noise.Eval.n_unmapped));
      ("avg_score_v", num d.Noise.Eval.avg_score_v);
    ]

let prune_json (s : Noise.Alignment.stats) =
  Json.Obj
    [
      ("total", num (float_of_int s.Noise.Alignment.total));
      ("solved", num (float_of_int s.Noise.Alignment.solved));
      ("pruned", num (float_of_int s.Noise.Alignment.pruned));
      ("rounds", num (float_of_int s.Noise.Alignment.rounds));
    ]

let table1_body scen ~cases (table : Noise.Eval.table) =
  Json.Obj
    ([
       ("scenario", Json.Str scen.Noise.Scenario.name);
       ("cases", num (float_of_int cases));
       ("rows", Json.Arr (List.map row_json table.Noise.Eval.rows));
       ("degradation", degradation_json table.Noise.Eval.degradation);
     ]
    @
    match table.Noise.Eval.prune with
    | Some s -> [ ("prune", prune_json s) ]
    | None -> [])

let montecarlo_body scen ~samples ~seed ~pruned
    (summaries : Noise.Montecarlo.summary list) =
  Json.Obj
    [
      ("scenario", Json.Str scen.Noise.Scenario.name);
      ("samples", num (float_of_int samples));
      ("seed", num (float_of_int seed));
      ("pruned", num (float_of_int pruned));
      ( "summaries",
        Json.Arr
          (List.map
             (fun (s : Noise.Montecarlo.summary) ->
               Json.Obj
                 [
                   ("technique", Json.Str s.Noise.Montecarlo.technique);
                   ("p50_ps", num s.Noise.Montecarlo.p50_ps);
                   ("p95_ps", num s.Noise.Montecarlo.p95_ps);
                   ("max_ps", num s.Noise.Montecarlo.max_ps);
                   ("n", num (float_of_int s.Noise.Montecarlo.n));
                   ("failed", num (float_of_int s.Noise.Montecarlo.failed));
                 ])
             summaries) );
    ]

let execute ~engine ?metrics query =
  (* [f] returns a result; solve exceptions escaping it are classified
     into typed failures (a genuine bug still propagates). *)
  let guarded f =
    try f () with
    | e -> (
        match Noise.Eval.failure_of_exn e with
        | Some f -> Error f
        | None -> raise e)
  in
  match query with
  | Ping ->
      Ok
        (Json.Obj
           [
             ("pong", Json.Bool true);
             ("version", Json.Str version);
             ("engine", Json.Str (Runtime.Engine.name engine));
           ])
  | Stats ->
      let counters =
        match metrics with
        | Some m ->
            (* Fold the cache's own counters in so clients can compute
               hit rates from one snapshot. *)
            (match Runtime.Engine.cache engine with
            | Some c -> Runtime.Metrics.capture_cache m c
            | None -> ());
            List.map
              (fun (k, v) -> (k, num (float_of_int v)))
              (Runtime.Metrics.counters m)
        | None -> []
      in
      Ok (Json.Obj [ ("counters", Json.Obj counters) ])
  | Delay { config; tau; technique } ->
      let* scen = find_scenario config in
      let* tech = find_technique technique in
      guarded (fun () ->
          let noiseless = Noise.Injection.noiseless ~engine scen in
          let case =
            Noise.Eval.evaluate_case ~techniques:[ tech ] ~engine scen
              ~noiseless ~tau
          in
          Ok (delay_body scen ~tau ~technique:tech.Eqwave.Technique.name case))
  | Gamma { config; tau; ladder } ->
      let* scen = find_scenario config in
      let* ladder = find_ladder ladder in
      guarded (fun () ->
          let noiseless = Noise.Injection.noiseless ~engine scen in
          let noisy = Noise.Injection.noisy ~engine scen ~tau in
          let ctx = Noise.Injection.ctx_of_runs scen ~noiseless ~noisy in
          match Eqwave.Ladder.run ladder ctx with
          | Ok outcome -> Ok (gamma_body scen ~tau ladder outcome)
          | Error skips ->
              Error
                (Runtime.Failure.Mapping_exhausted
                   {
                     tried = List.length skips;
                     last =
                       (match List.rev skips with
                       | s :: _ -> s.Eqwave.Ladder.reason
                       | [] -> "empty ladder");
                   }))
  | Table1 { config; cases; techniques; samples; prune_tol_ps } ->
      let* scen = find_scenario config in
      let* techniques =
        match techniques with
        | None -> Ok None
        | Some names ->
            let* ts =
              List.fold_left
                (fun acc name ->
                  let* acc = acc in
                  let* t = find_technique name in
                  Ok (t :: acc))
                (Ok []) names
            in
            Ok (Some (List.rev ts))
      in
      guarded (fun () ->
          let scen = Noise.Scenario.with_cases scen cases in
          let table =
            Noise.Eval.run_table ?techniques ?samples ~engine ~prune_tol_ps
              scen
          in
          Ok (table1_body scen ~cases table))
  | Montecarlo { config; samples; seed; prune_tol_ps } ->
      let* scen = find_scenario config in
      guarded (fun () ->
          let draws, summaries =
            Noise.Montecarlo.run ~seed ~samples ~engine ~prune_tol_ps scen
          in
          let pruned =
            List.length
              (List.filter (fun s -> s.Noise.Montecarlo.pruned) draws)
          in
          Ok (montecarlo_body scen ~samples ~seed ~pruned summaries))

let response ~id result =
  let envelope body =
    Json.Obj
      [ ("id", num (float_of_int id)); ("version", Json.Str version); body ]
  in
  match result with
  | Ok body -> envelope ("ok", body)
  | Error f -> envelope ("error", failure_json f)

let error_response ~id ~code message =
  Json.Obj
    [
      ("id", num (float_of_int id));
      ("version", Json.Str version);
      ( "error",
        Json.Obj
          [
            ("code", Json.Str code);
            ("message", Json.Str message);
            ("recoverable", Json.Bool false);
          ] );
    ]

let parse_error_response = function
  | Bad_request msg -> error_response ~id:0 ~code:"bad_request" msg
  | Version_mismatch { id; got } ->
      error_response ~id ~code:"version_mismatch"
        (Printf.sprintf
           "client speaks protocol %s, this server speaks %s (major \
            versions must match)"
           got version)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

(* Refuse payloads above this size: a corrupt length prefix must not
   allocate unboundedly. *)
let max_frame = 16 * 1024 * 1024

(* Fd ops go through [Netfault] (a pass-through to [Unix.read]/
   [Unix.write] unless a chaos plan is armed). A socket armed with
   SO_RCVTIMEO surfaces an expired deadline as EAGAIN/EWOULDBLOCK;
   [~any] distinguishes an idle timeout (no byte of the next frame
   yet — the caller may treat it as a quiet connection) from a
   mid-frame one (the slowloris signature: a peer that started a frame
   and stopped feeding it). *)
let rec really_read fd buf ofs len ~any =
  if len = 0 then Ok ()
  else
    match Netfault.read fd buf ofs len with
    | 0 -> if any then Error (`Err "truncated frame") else Error `Eof
    | n -> really_read fd buf (ofs + n) (len - n) ~any:true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        really_read fd buf ofs len ~any
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (`Timeout (if any then `Mid_frame else `Idle))
    | exception Unix.Unix_error (e, _, _) ->
        Error (`Err (Unix.error_message e))

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 ~any:false with
  | Error _ as e -> e
  | Ok () -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        Error (`Err (Printf.sprintf "bad frame length %d" len))
      else
        let payload = Bytes.create len in
        match really_read fd payload 0 len ~any:true with
        | Error _ as e -> e
        | Ok () -> Ok (Bytes.unsafe_to_string payload))

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  let rec go ofs remaining =
    if remaining > 0 then
      match Netfault.write fd buf ofs remaining with
      | n -> go (ofs + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs remaining
  in
  go 0 (4 + len)
