(* A graceful-degradation ladder over the Gamma_eff techniques: try
   each rung in order, skipping inapplicable techniques via their
   predicate (and catching Unsupported from the fit as a safety net),
   and score whatever ramp is accepted so callers can see what the
   degradation cost them. *)

type skip = { technique : string; reason : string }

type outcome = {
  ramp : Waveform.Ramp.t;
  technique : string;
  rung : int;
  score_v : float;
  skipped : skip list;
}

type t = { name : string; order : Technique.t list }

let make ?(name = "custom") order =
  if order = [] then invalid_arg "Ladder.make: empty ladder";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (tech : Technique.t) ->
      if Hashtbl.mem seen tech.Technique.name then
        invalid_arg
          (Printf.sprintf "Ladder.make: duplicate technique %s"
             tech.Technique.name);
      Hashtbl.add seen tech.Technique.name ())
    order;
  { name; order }

let default =
  make ~name:"default"
    [
      Sgdp.sgdp; Wls.wls5; Least_squares.lsf3; Energy.e4; Point_based.p1;
    ]

let of_names names =
  let order =
    List.map
      (fun n ->
        try Registry.find n
        with Not_found ->
          invalid_arg (Printf.sprintf "Ladder.of_names: unknown technique %s" n))
      names
  in
  make ~name:(String.concat ">" (List.map String.lowercase_ascii names)) order

let prepend (tech : Technique.t) t =
  let rest =
    List.filter
      (fun (o : Technique.t) -> o.Technique.name <> tech.Technique.name)
      t.order
  in
  { name = tech.Technique.name ^ ">" ^ t.name; order = tech :: rest }

let names t = List.map (fun (o : Technique.t) -> o.Technique.name) t.order
let length t = List.length t.order

let fingerprint t =
  "eqwave.ladder|" ^ t.name ^ "|" ^ String.concat "," (names t)

(* RMS deviation, in volts, of the accepted ramp from the sampled noisy
   waveform over the noisy critical region (full record when the noisy
   waveform never spans the thresholds). This is an *input-referred*
   degradation score: rung 0 on a clean waveform scores near zero and
   cruder rungs on uglier waveforms score higher. *)
let score ctx ramp =
  let a, b =
    match Technique.noisy_critical_region_opt ctx with
    | Some r -> r
    | None ->
        Waveform.Wave.
          (t_start ctx.Technique.noisy_in, t_end ctx.Technique.noisy_in)
  in
  if b <= a then 0.0
  else begin
    let p = Int.max 4 ctx.Technique.samples in
    let ts = Technique.sample_times (a, b) p in
    let acc = ref 0.0 in
    Array.iter
      (fun t ->
        let d =
          Waveform.Ramp.value_at ramp t
          -. Waveform.Wave.value_at ctx.Technique.noisy_in t
        in
        acc := !acc +. (d *. d))
      ts;
    sqrt (!acc /. float_of_int p)
  end

let ramp_is_finite (r : Waveform.Ramp.t) =
  Float.is_finite r.Waveform.Ramp.slope
  && Float.is_finite r.Waveform.Ramp.intercept

let run t ctx =
  let rec go rung skipped = function
    | [] -> Error (List.rev skipped)
    | (tech : Technique.t) :: rest -> (
        let technique = tech.Technique.name in
        let skip reason =
          go (rung + 1) ({ technique; reason } :: skipped) rest
        in
        match tech.Technique.applicable ctx with
        | Error reason | (exception Technique.Unsupported reason) -> skip reason
        | Ok () -> (
            (* The predicate is a prediction; the fit itself can still
               reject (Unsupported) or signal a numeric domain error
               (Failure) — both degrade to the next rung. *)
            match tech.Technique.run ctx with
            | exception Technique.Unsupported reason -> skip reason
            | exception Stdlib.Failure reason ->
                skip (technique ^ ": " ^ reason)
            | ramp when not (ramp_is_finite ramp) ->
                skip (technique ^ ": non-finite fit")
            | ramp ->
                Ok
                  {
                    ramp;
                    technique;
                    rung;
                    score_v = score ctx ramp;
                    skipped = List.rev skipped;
                  }))
  in
  go 0 [] t.order
