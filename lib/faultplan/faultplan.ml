(* Deterministic, seeded fault injection: one spec grammar, one armed
   plan with its op and injection counters, and one seeded draw, shared
   by every injector (the solver, the disk cache, the network layer).
   No dependency beyond the standard library, so the lowest layer that
   rolls faults (the transient solver) can use it. *)

(* The first six bytes of MD5(salt:seed:k), big-endian. MD5 is plenty
   fast next to the ops it schedules and identical on every platform,
   and the salt keeps the streams of different injectors apart. *)
let bits ~salt ~seed k =
  let d = Digest.string (Printf.sprintf "%s:%d:%d" salt seed k) in
  let x = ref 0 in
  for i = 0 to 5 do
    x := (!x lsl 8) lor Char.code d.[i]
  done;
  !x

let uniform ~salt ~seed k =
  float_of_int (bits ~salt ~seed k) /. float_of_int (1 lsl 48)

type sel = Nth of { n : int } | Fraction of { rate : float; seed : int }
type 'k plan = { kind : 'k option; sel : sel }

type 'k t = {
  salt : string;
  kinds : (string * 'k) list;
  default : int -> 'k;
  armed : 'k plan option Atomic.t;
  ops : int Atomic.t;
  injected : int Atomic.t;
}

let create ~salt ~kinds ~default =
  {
    salt;
    kinds;
    default;
    armed = Atomic.make None;
    ops = Atomic.make 0;
    injected = Atomic.make 0;
  }

(* Grammar: [KIND:]("nth:"N | RATE["@"SEED]), KIND from the injector's
   vocabulary. *)
let of_string t s =
  let after prefix s =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  let kind, rest =
    List.find_map
      (fun (name, k) ->
        Option.map (fun rest -> (Some k, rest)) (after (name ^ ":") s))
      t.kinds
    |> Option.value ~default:(None, s)
  in
  let fraction rate seed =
    match (float_of_string_opt rate, int_of_string_opt seed) with
    | Some rate, Some seed when rate >= 0.0 && rate <= 1.0 ->
        Some (Fraction { rate; seed })
    | _ -> None
  in
  let sel =
    match (after "nth:" rest, String.split_on_char '@' rest) with
    | Some n, _ -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Some (Nth { n })
        | _ -> None)
    | None, [ rate ] -> fraction rate "0"
    | None, [ rate; seed ] -> fraction rate seed
    | None, _ -> None
  in
  match sel with
  | Some sel -> Ok { kind; sel }
  | None ->
      let kinds = List.map (fun (name, _) -> name ^ ":") t.kinds in
      Error
        (Printf.sprintf
           "bad fault spec %S: want %s(nth:N | RATE[@SEED]), N >= 0, RATE in \
            [0,1]"
           s
           (if kinds = [] then "" else "[" ^ String.concat "|" kinds ^ "]"))

let arm t plan =
  Atomic.set t.ops 0;
  Atomic.set t.injected 0;
  Atomic.set t.armed (Some plan)

let disarm t = Atomic.set t.armed None
let is_armed t = Option.is_some (Atomic.get t.armed)
let injected t = Atomic.get t.injected

let roll t =
  match Atomic.get t.armed with
  | None -> None
  | Some { kind; sel } ->
      let k = Atomic.fetch_and_add t.ops 1 in
      let hit =
        match sel with
        | Nth { n } -> k = n
        | Fraction { rate; seed } -> uniform ~salt:t.salt ~seed k < rate
      in
      if not hit then None
      else begin
        Atomic.incr t.injected;
        Some (match kind with Some kind -> kind | None -> t.default k)
      end
