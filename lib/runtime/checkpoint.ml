type t = { dir : string }

(* Format 3 is one {!Record} file per entry: the magic, then a single
   CRC-32 frame holding the marshalled payload, so a bit-rotted entry
   that still carries a whole magic fails its checksum instead of
   reaching [Marshal]. Journals of older formats fail the meta check
   below (the magic is part of the meta content) and are wiped
   wholesale on open. *)
let magic = "noisy_sta.ckpt.3\n"

let entry_name i = Printf.sprintf "case-%06d" i
let entry_path t i = Filename.concat t.dir (entry_name i)

let is_entry name =
  String.length name > 5 && String.sub name 0 5 = "case-"

let wipe_entries dir =
  Array.iter
    (fun name ->
      if is_entry name then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let open_ ~dir ~name ~fingerprint =
  Record.ensure_dir dir;
  let d = Filename.concat dir (sanitize name) in
  Record.ensure_dir d;
  let meta_path = Filename.concat d "meta" in
  let want = magic ^ fingerprint ^ "\n" in
  let current = try Some (Record.read_file meta_path) with _ -> None in
  if current <> Some want then begin
    (* Fresh journal, or one written for a different sweep/format:
       entries would be silently wrong, so drop them all. *)
    wipe_entries d;
    Record.write_atomic meta_path want
  end;
  { dir = d }

let find t i =
  let path = entry_path t i in
  if not (Sys.file_exists path) then None
  else
    match
      Option.map
        (fun body -> Marshal.from_string body 0)
        (Record.single ~magic (Record.read_file path))
    with
    | Some v -> Some v
    | None | (exception _) ->
        (* Torn or corrupt entry (e.g. the process died mid-write on a
           filesystem without atomic rename, or the bytes rotted):
           recompute it. *)
        (try Sys.remove path with Sys_error _ -> ());
        None

let record t i v =
  try
    Record.write_atomic (entry_path t i)
      (Record.encode ~magic [ Marshal.to_string v [] ])
  with _ -> () (* a full disk degrades to recomputation, not a crash *)
