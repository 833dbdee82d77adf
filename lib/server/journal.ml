(* Write-ahead log of admitted requests.

   One journal directory holds numbered segment files
   (wal-NNNNNN.seg). A segment is a Runtime.Record file: the versioned
   magic line followed by length-prefixed, CRC-stamped frames:

     u32_be body_len | body | u32_be crc32(body)
     body := kind(1) ^ digest(32 hex) ^ payload    kind 'A' (admit)
     body := kind(1) ^ digest(32 hex)              kind 'R' (retire)

   An admit is written before the request enters the workqueue; the
   matching retire is written only after the response frame has been
   flushed to the client. Replay at open therefore recovers exactly
   the requests that were admitted but whose answer is not known to
   have reached a client.

   Open always compacts: every existing segment is decoded (tolerating
   a torn tail and CRC-corrupt records), the surviving pending set is
   rewritten as one fresh segment with Record.write_atomic (readers
   only ever see complete files), and only then are the old segments
   unlinked. Appending after a torn tail is thus impossible by
   construction. The same compaction runs as rotation when the live
   segment outgrows its budget, dropping retired records from disk.

   Disk trouble degrades rather than kills: a failed journal write,
   rotation included, is counted in [write_errors] and the daemon keeps
   serving — the durability guarantee narrows, the service does not
   stop. *)

let magic = "noisy_sta.wal.1\n"
let digest_len = 32

type entry = { digest : string; payload : string }

type stats = {
  appended : int;
  retired : int;
  pending : int;
  rotations : int;
  replayed : int;
  torn_tails : int;
  crc_skipped : int;
  bad_segments : int;
  write_errors : int;
}

type t = {
  dir : string;
  max_segment_bytes : int;
  m : Mutex.t;
  mutable oc : out_channel;
  mutable seg_index : int;
  mutable seg_bytes : int;
  mutable compact_bytes : int;  (* live segment size right after compaction *)
  tbl : (string, int * string) Hashtbl.t;  (* digest -> admit seq, payload *)
  mutable seq : int;
  mutable appended : int;
  mutable retired : int;
  mutable rotations : int;
  mutable replayed : int;
  mutable torn_tails : int;
  mutable crc_skipped : int;
  mutable bad_segments : int;
  mutable write_errors : int;
  mutable closed : bool;
}

let digest payload = Digest.to_hex (Digest.string payload)

(* ------------------------------------------------------------------ *)
(* Record codec *)

let check_digest d =
  if String.length d <> digest_len then
    invalid_arg "Journal: digest must be 32 hex chars"

let encode_admit ~digest ~payload =
  check_digest digest;
  Runtime.Record.frame ("A" ^ digest ^ payload)

let encode_retire digest =
  check_digest digest;
  Runtime.Record.frame ("R" ^ digest)

(* Apply one segment's raw bytes to [tbl], accumulating recovery
   counters. A frame with a valid CRC but an unknown kind or a body
   too short to hold a digest is a future format speaking through an
   old reader: it is skipped like a CRC-corrupt one. *)
let decode_segment t raw =
  match Runtime.Record.scan ~magic raw with
  | None -> t.bad_segments <- t.bad_segments + 1
  | Some { bodies; crc_skipped; torn } ->
      t.crc_skipped <- t.crc_skipped + crc_skipped;
      if torn then t.torn_tails <- t.torn_tails + 1;
      List.iter
        (fun body ->
          let len = String.length body in
          if len < 1 + digest_len then t.crc_skipped <- t.crc_skipped + 1
          else
            let d = String.sub body 1 digest_len in
            match body.[0] with
            | 'A' ->
                if not (Hashtbl.mem t.tbl d) then begin
                  let payload =
                    String.sub body (1 + digest_len) (len - 1 - digest_len)
                  in
                  Hashtbl.replace t.tbl d (t.seq, payload);
                  t.seq <- t.seq + 1
                end
            | 'R' -> Hashtbl.remove t.tbl d
            | _ -> t.crc_skipped <- t.crc_skipped + 1)
        bodies

(* ------------------------------------------------------------------ *)
(* Segment files *)

let seg_name i = Printf.sprintf "wal-%06d.seg" i

let seg_index_of name =
  if
    String.length name = String.length (seg_name 0)
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 6)
  else None

(* Pending entries in admit order. *)
let pending_entries tbl =
  Hashtbl.fold (fun d (seq, payload) acc -> (seq, d, payload) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare (a : int) b)
  |> List.map (fun (_, d, payload) -> { digest = d; payload })

(* Write segment [index] containing exactly the pending set, via
   Record.write_atomic, then unlink [old_indices]. A failed write
   raises before anything is unlinked. Called with the lock held (or
   before [t] escapes open_). *)
let write_compacted dir index entries old_indices =
  let contents =
    String.concat ""
      (magic
      :: List.map (fun { digest; payload } -> encode_admit ~digest ~payload)
           entries)
  in
  let path = Filename.concat dir (seg_name index) in
  Runtime.Record.write_atomic path contents;
  List.iter
    (fun i ->
      if i <> index then
        try Sys.remove (Filename.concat dir (seg_name i))
        with Sys_error _ -> ())
    old_indices;
  (path, String.length contents)

let open_append path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

(* ------------------------------------------------------------------ *)

let open_ ?(max_segment_bytes = 4 * 1024 * 1024) dir =
  Runtime.Record.ensure_dir dir;
  let indices =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map seg_index_of
    |> List.sort compare
  in
  let t =
    {
      dir;
      max_segment_bytes;
      m = Mutex.create ();
      oc = stdout (* replaced below *);
      seg_index = 0;
      seg_bytes = 0;
      compact_bytes = 0;
      tbl = Hashtbl.create 64;
      seq = 0;
      appended = 0;
      retired = 0;
      rotations = 0;
      replayed = 0;
      torn_tails = 0;
      crc_skipped = 0;
      bad_segments = 0;
      write_errors = 0;
      closed = false;
    }
  in
  List.iter
    (fun i ->
      match Runtime.Record.read_file (Filename.concat dir (seg_name i)) with
      | raw -> decode_segment t raw
      | exception Sys_error _ -> t.bad_segments <- t.bad_segments + 1)
    indices;
  t.replayed <- Hashtbl.length t.tbl;
  let next = match List.rev indices with [] -> 0 | i :: _ -> i + 1 in
  let path, bytes =
    write_compacted dir next (pending_entries t.tbl) indices
  in
  t.seg_index <- next;
  t.seg_bytes <- bytes;
  t.compact_bytes <- bytes;
  t.oc <- open_append path;
  t

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Rotation drops retired records from disk. Only worthwhile when the
   live segment has actually accumulated garbage beyond its last
   compacted size — without the 2x guard a pending set near the budget
   would recompact on every append. The compacted segment is written
   before the live one is closed: if that write fails (a full disk),
   the journal counts a write error and keeps appending to the live
   segment, which still holds every record. *)
let maybe_rotate t =
  if
    t.seg_bytes > t.max_segment_bytes
    && t.seg_bytes > 2 * Int.max 1 t.compact_bytes
  then
    match
      write_compacted t.dir (t.seg_index + 1) (pending_entries t.tbl)
        [ t.seg_index ]
    with
    | exception Sys_error _ -> t.write_errors <- t.write_errors + 1
    | path, bytes ->
        close_out_noerr t.oc;
        t.seg_index <- t.seg_index + 1;
        t.seg_bytes <- bytes;
        t.compact_bytes <- bytes;
        t.oc <- open_append path;
        t.rotations <- t.rotations + 1

let write_record t record =
  match
    output_string t.oc record;
    flush t.oc
  with
  | () ->
      t.seg_bytes <- t.seg_bytes + String.length record;
      true
  | exception Sys_error _ ->
      t.write_errors <- t.write_errors + 1;
      false

let admit t ~digest:d ~payload =
  check_digest d;
  locked t (fun () ->
      if (not t.closed) && not (Hashtbl.mem t.tbl d) then begin
        Hashtbl.replace t.tbl d (t.seq, payload);
        t.seq <- t.seq + 1;
        if write_record t (encode_admit ~digest:d ~payload) then
          t.appended <- t.appended + 1;
        maybe_rotate t
      end)

let retire t d =
  check_digest d;
  locked t (fun () ->
      if (not t.closed) && Hashtbl.mem t.tbl d then begin
        Hashtbl.remove t.tbl d;
        if write_record t (encode_retire d) then
          t.retired <- t.retired + 1;
        maybe_rotate t
      end)

let pending t = locked t (fun () -> pending_entries t.tbl)

let stats t =
  locked t (fun () ->
      {
        appended = t.appended;
        retired = t.retired;
        pending = Hashtbl.length t.tbl;
        rotations = t.rotations;
        replayed = t.replayed;
        torn_tails = t.torn_tails;
        crc_skipped = t.crc_skipped;
        bad_segments = t.bad_segments;
        write_errors = t.write_errors;
      })

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        close_out_noerr t.oc
      end)
