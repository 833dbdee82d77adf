type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type t = { fd : Unix.file_descr; mutable open_ : bool }

let resolve host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith ("cannot resolve host " ^ host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found -> failwith ("cannot resolve host " ^ host))

let sockaddr = function
  | Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve host, port))

let connect ?(retries = 100) ?read_timeout_s ?write_timeout_s addr =
  let domain, sa = sockaddr addr in
  let arm fd =
    let set opt v =
      match v with
      | None -> ()
      | Some s -> (
          try Unix.setsockopt_float fd opt s with Unix.Unix_error _ -> ())
    in
    set Unix.SO_RCVTIMEO read_timeout_s;
    set Unix.SO_SNDTIMEO write_timeout_s
  in
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () ->
        arm fd;
        { fd; open_ = true }
    | exception
        Unix.Unix_error ((ECONNREFUSED | ENOENT | EAGAIN | EINTR), _, _)
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.05;
        go (attempt + 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go 0

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Requests are rendered to bytes exactly once per logical call (see
   the retry loop): [Protocol.request_to_json] is deterministic, so
   every retry of the same logical request puts byte-identical payload
   on the wire — the digest the server's journal dedups on. *)
let render request = Json.to_string (Protocol.request_to_json request)

let call_payload t payload =
  if not t.open_ then Error "client closed"
  else
    match Protocol.write_frame t.fd payload with
    | () -> (
        match Protocol.read_frame t.fd with
        | Ok payload -> Ok payload
        | Error `Eof -> Error "connection closed by server"
        | Error (`Timeout _) -> Error "timed out waiting for response"
        | Error (`Err msg) -> Error msg)
    | exception Unix.Unix_error (e, _, _) ->
        Error ("send failed: " ^ Unix.error_message e)

let call_raw t request = call_payload t (render request)

let call t request =
  match call_raw t request with
  | Error _ as e -> e
  | Ok payload -> (
      match Json.parse payload with
      | Ok doc -> Ok doc
      | Error msg -> Error ("malformed response: " ^ msg))

let ping t =
  call t { Protocol.id = 0; query = Protocol.Ping; deadline_ms = None }

(* ------------------------------------------------------------------ *)
(* Retrying call: fresh connection per attempt, capped exponential
   backoff with deterministic (digest-seeded) jitter so concurrent
   clients desynchronise without a global RNG, and a hard attempt
   budget so callers always get a typed error rather than an unbounded
   loop. *)

type retry_policy = {
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  seed : int;
}

let default_retry_policy =
  { attempts = 5; base_delay_s = 0.02; max_delay_s = 0.5; seed = 0 }

type retry_error = { attempts : int; last : string }

let backoff_delay policy attempt =
  let expo = policy.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min policy.max_delay_s expo in
  (* Jitter in [0.5, 1.0] of the capped delay. *)
  let u = Faultplan.uniform ~salt:"client.retry" ~seed:policy.seed attempt in
  capped *. (0.5 +. (0.5 *. u))

(* Does this (well-formed) response carry a recoverable typed error —
   an admission shed ([overloaded], [too_many_connections], ...) worth
   retrying on a fresh connection? *)
let recoverable_error doc =
  match Json.member "error" doc with
  | None -> None
  | Some err -> (
      match Json.member "recoverable" err with
      | Some (Json.Bool true) ->
          Some
            (match Option.bind (Json.member "code" err) Json.to_str with
            | Some code -> code
            | None -> "unknown")
      | _ -> None)

(* Shared retry core over an already-rendered payload: fresh
   connection per attempt, same bytes every attempt. [classify] turns
   a delivered response into the caller's result or another attempt. *)
let retry ~(policy : retry_policy) ~what ?read_timeout_s ?write_timeout_s
    addr ~payload ~classify =
  if policy.attempts < 1 then invalid_arg ("Client." ^ what ^ ": attempts < 1");
  let rec attempt i last =
    if i >= policy.attempts then Error { attempts = i; last }
    else begin
      if i > 0 then Thread.delay (backoff_delay policy i);
      match connect ~retries:0 ?read_timeout_s ?write_timeout_s addr with
      | exception Unix.Unix_error (e, _, _) ->
          attempt (i + 1) ("connect failed: " ^ Unix.error_message e)
      | exception Stdlib.Failure msg -> attempt (i + 1) msg
      | c -> (
          let result = call_payload c payload in
          close c;
          match result with
          | Ok bytes -> (
              match classify bytes with
              | `Done v -> Ok v
              | `Retry msg -> attempt (i + 1) msg)
          | Error msg -> attempt (i + 1) msg)
    end
  in
  attempt 0 "no attempt made"

let call_raw_with_retry ?(policy = default_retry_policy)
    ?(retry_recoverable = false) ?read_timeout_s ?write_timeout_s addr
    request =
  retry ~policy ~what:"call_raw_with_retry" ?read_timeout_s ?write_timeout_s
    addr ~payload:(render request) ~classify:(fun bytes ->
      if not retry_recoverable then `Done bytes
      else
        match Json.parse bytes with
        | Error _ -> `Done bytes
        | Ok doc -> (
            match recoverable_error doc with
            | Some code -> `Retry ("recoverable server error: " ^ code)
            | None -> `Done bytes))
