(* The one on-disk record format: a magic line, then frames of
     u32_be len | body | u32_be crc32(body)
   plus the file plumbing every writer shares. *)

let be32 x =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 x;
  Bytes.to_string b

let frame body =
  let len = be32 (Int32.of_int (String.length body)) in
  String.concat "" [ len; body; be32 (Crc32.string body) ]

let encode ~magic bodies = String.concat "" (magic :: List.map frame bodies)

type scan = { bodies : string list; crc_skipped : int; torn : bool }

let has_magic ~magic raw =
  let mlen = String.length magic in
  String.length raw >= mlen && String.equal (String.sub raw 0 mlen) magic

(* A frame whose CRC fails is skipped (its length prefix still locates
   the next boundary); a frame that does not fit in the remaining bytes
   is a torn tail and ends the scan. Nothing is copied before its CRC
   passes, so a lying length costs one bounded CRC pass. *)
let scan ~magic raw =
  if not (has_magic ~magic raw) then None
  else
    let n = String.length raw in
    let rec go pos bodies crc_skipped =
      let result torn = Some { bodies = List.rev bodies; crc_skipped; torn } in
      if pos = n then result false
      else if pos + 4 > n then result true
      else
        let len =
          Int32.to_int (String.get_int32_be raw pos) land 0xFFFF_FFFF
        in
        if len > n - pos - 8 then result true
        else
          let body = pos + 4 in
          let next = body + len + 4 in
          if Crc32.update 0l raw body len = String.get_int32_be raw (body + len)
          then go next (String.sub raw body len :: bodies) crc_skipped
          else go next bodies (crc_skipped + 1)
    in
    go (String.length magic) [] 0

let single ~magic raw =
  match scan ~magic raw with
  | Some { bodies = [ body ]; crc_skipped = 0; torn = false } -> Some body
  | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Concurrent writers (pool domains) each use a distinct tmp name, and
   the rename is atomic, so readers only ever see complete files. [close_out] runs inside the body: its flush is
   where a full disk surfaces, and swallowing that error would let the
   rename publish a truncated file. *)
let write_atomic path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      ((Domain.self () :> int))
  in
  let oc = open_out_bin tmp in
  match
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let is_tmp name =
  let rec find i =
    i + 5 <= String.length name
    && (String.equal (String.sub name i 5) ".tmp." || find (i + 1))
  in
  find 0
