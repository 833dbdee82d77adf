let accept_loop ~stop lfd handler =
  while not (Atomic.get stop) do
    match Unix.select [ lfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true lfd with
        | fd, peer -> handler fd peer
        | exception Unix.Unix_error ((EINTR | ECONNABORTED | EAGAIN), _, _)
          ->
            ()
        | exception Unix.Unix_error (EBADF, _, _) ->
            (* Listening socket closed under us during shutdown. *)
            Atomic.set stop true)
    | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* HTTP *)

let max_http_request = 8 * 1024

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Read until the blank line ending the header block; we ignore the
   headers themselves, so the request line is all we need to route.
   The cap is a hard limit on the buffered total — a header block that
   would exceed it is rejected as [`Too_large] (answered 413), never
   silently truncated — and a read deadline expiring on the socket
   (SO_RCVTIMEO → EAGAIN) surfaces as [`Timeout] (answered 408). *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let header_done () =
    let s = Buffer.contents buf in
    contains_substring s "\r\n\r\n" || contains_substring s "\n\n"
  in
  let rec go () =
    if header_done () then Ok (Buffer.contents buf)
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Ok (Buffer.contents buf)
      | n ->
          if Buffer.length buf + n > max_http_request then Error `Too_large
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          Error `Timeout
  in
  go ()

let respond fd ~status ~body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\n\
       Content-Type: text/plain; charset=utf-8\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      status (String.length body)
  in
  let payload = Bytes.of_string (head ^ body) in
  let len = Bytes.length payload in
  let rec go ofs =
    if ofs < len then
      match Unix.write fd payload ofs (len - ofs) with
      | n -> go (ofs + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go ofs
  in
  go 0

(* Closing a socket with request bytes still unread makes the kernel
   reset the connection, which can destroy an error response before the
   peer reads it. So after a 413/408 the server half-closes its send
   side (the peer sees the whole response, then EOF) and reads and
   discards what the peer still sends until its EOF, [drain_cap] bytes
   or [drain_s] seconds, whichever comes first; only then does the
   caller close. *)
let drain_cap = 64 * 1024
let drain_s = 0.25

let drain fd =
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. drain_s in
  let rec go left =
    let wait = deadline -. Unix.gettimeofday () in
    if left > 0 && wait > 0.0 then
      match Unix.select [ fd ] [] [] wait with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n -> go (left - n))
      | exception Unix.Unix_error (EINTR, _, _) -> go left
  in
  try
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    go drain_cap
  with Unix.Unix_error _ -> ()

let route ~metrics ~health line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "GET"; "/metrics"; _ ] | [ "GET"; "/metrics" ] ->
      ("200 OK", Runtime.Metrics.to_prometheus metrics)
  | [ "GET"; ("/health" | "/healthz"); _ ]
  | [ "GET"; ("/health" | "/healthz") ] ->
      ("200 OK", health ())
  | "GET" :: _ -> ("404 Not Found", "not found\n")
  | _ -> ("405 Method Not Allowed", "method not allowed\n")

let handle_http ~metrics ~health fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        match read_request fd with
        | Error `Too_large ->
            Runtime.Metrics.incr metrics "server.http_errors";
            respond fd ~status:"413 Content Too Large"
              ~body:"request header block too large\n";
            drain fd
        | Error `Timeout ->
            Runtime.Metrics.incr metrics "server.http_errors";
            respond fd ~status:"408 Request Timeout"
              ~body:"request header read timed out\n";
            drain fd
        | Ok request ->
            let line =
              match String.index_opt request '\n' with
              | Some i -> String.sub request 0 i
              | None -> request
            in
            if line <> "" then
              let status, body = route ~metrics ~health line in
              respond fd ~status ~body
      with Unix.Unix_error _ ->
        (* The peer vanished mid-exchange. Count it — a flapping scrape
           target should be visible to operators, not swallowed. *)
        Runtime.Metrics.incr metrics "server.http_errors")
