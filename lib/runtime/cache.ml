module Key = struct
  type part = string

  let str s = Printf.sprintf "s%d:%s" (String.length s) s
  let bool b = if b then "b:1" else "b:0"

  (* Hex float notation is lossless: equal parts mean bit-equal
     doubles. *)
  let float f = Printf.sprintf "f:%h" f

  let make tag parts =
    Digest.to_hex (Digest.string (String.concat "\x00" (str tag :: parts)))
end

(* Deterministic disk-layer fault injection: one plan for every disk op
   of every cache, indexed by a process-global op counter, so a given
   (plan, op sequence) always faults the same ops. A hit surfaces as a
   simulated I/O error ahead of any file access. *)
let faults = Faultplan.create ~salt:"cache.fault" ~kinds:[] ~default:ignore

exception Injected

let roll_fault () =
  if Option.is_some (Faultplan.roll faults) then raise Injected

(* ------------------------------------------------------------------ *)
(* Circuit breaker guarding the disk layer: after [threshold]
   consecutive disk failures the breaker opens and every disk op is
   short-circuited (the memory shards keep serving) until [cooldown_s]
   has elapsed; then exactly one probe op is admitted (half-open) and
   its outcome either re-closes the breaker or re-opens it for another
   cooldown. The clock is injectable so the state machine is testable
   without sleeping. *)

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    threshold : int;
    cooldown_s : float;
    now : unit -> float;
    m : Mutex.t;
    mutable state : state;
    mutable consecutive : int;
    mutable opened_at : float;
    mutable probing : bool;
    mutable opens : int;
    mutable recloses : int;
    mutable short_circuits : int;
  }

  let create ?(threshold = 8) ?(cooldown_s = 5.0) ?(now = Unix.gettimeofday)
      () =
    if threshold < 1 then invalid_arg "Cache.Breaker.create: threshold < 1";
    if cooldown_s < 0.0 then
      invalid_arg "Cache.Breaker.create: cooldown_s < 0";
    {
      threshold;
      cooldown_s;
      now;
      m = Mutex.create ();
      state = Closed;
      consecutive = 0;
      opened_at = neg_infinity;
      probing = false;
      opens = 0;
      recloses = 0;
      short_circuits = 0;
    }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let state t = locked t (fun () -> t.state)
  let opens t = locked t (fun () -> t.opens)
  let recloses t = locked t (fun () -> t.recloses)
  let short_circuits t = locked t (fun () -> t.short_circuits)

  (* Should this disk op be attempted? Open transitions to half-open
     once the cooldown has elapsed, admitting exactly one probe;
     everything else during open/half-open is short-circuited. *)
  let admit t =
    locked t (fun () ->
        match t.state with
        | Closed -> true
        | Open when t.now () -. t.opened_at >= t.cooldown_s ->
            t.state <- Half_open;
            t.probing <- true;
            true
        | Open ->
            t.short_circuits <- t.short_circuits + 1;
            false
        | Half_open when not t.probing ->
            t.probing <- true;
            true
        | Half_open ->
            t.short_circuits <- t.short_circuits + 1;
            false)

  let success t =
    locked t (fun () ->
        match t.state with
        | Closed -> t.consecutive <- 0
        | Half_open ->
            t.state <- Closed;
            t.consecutive <- 0;
            t.probing <- false;
            t.recloses <- t.recloses + 1
        | Open -> ())

  let failure t =
    locked t (fun () ->
        match t.state with
        | Closed ->
            t.consecutive <- t.consecutive + 1;
            if t.consecutive >= t.threshold then begin
              t.state <- Open;
              t.opened_at <- t.now ();
              t.opens <- t.opens + 1
            end
        | Half_open ->
            t.state <- Open;
            t.opened_at <- t.now ();
            t.probing <- false;
            t.opens <- t.opens + 1
        | Open -> ())
end

type shard = { m : Mutex.t; tbl : (string, Waveform.Wave.t list) Hashtbl.t }

type t = {
  shards : shard array;
  disk_dir : string option;
  breaker : Breaker.t option;
  max_disk_bytes : int option;
  hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
  read_errors : int Atomic.t;
  write_errors : int Atomic.t;
  bytes_written : int Atomic.t;
  disk_bytes : int Atomic.t;
  evictions : int Atomic.t;
  evict_m : Mutex.t;
}

let file_size path =
  match (Unix.stat path).Unix.st_size with
  | s -> s
  | exception Unix.Unix_error _ -> 0

(* The resident-bytes gauge starts from a directory walk so a warm
   cache dir left by an earlier process is accounted for; after that
   every write/unlink maintains it incrementally. *)
let scan_disk_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name -> acc + file_size (Filename.concat dir name))
        0 names

let create ?(shards = 16) ?disk_dir ?breaker_threshold ?breaker_cooldown_s
    ?now ?max_disk_bytes () =
  if shards < 1 then invalid_arg "Cache.create: shards < 1";
  (match max_disk_bytes with
  | Some b when b < 1 -> invalid_arg "Cache.create: max_disk_bytes < 1"
  | _ -> ());
  {
    shards =
      Array.init shards (fun _ ->
          { m = Mutex.create (); tbl = Hashtbl.create 64 });
    disk_dir;
    breaker =
      Option.map
        (fun (_ : string) ->
          Breaker.create ?threshold:breaker_threshold
            ?cooldown_s:breaker_cooldown_s ?now ())
        disk_dir;
    max_disk_bytes;
    hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    misses = Atomic.make 0;
    read_errors = Atomic.make 0;
    write_errors = Atomic.make 0;
    bytes_written = Atomic.make 0;
    disk_bytes =
      Atomic.make
        (match disk_dir with Some d -> scan_disk_bytes d | None -> 0);
    evictions = Atomic.make 0;
    evict_m = Mutex.create ();
  }

let shard_of t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

let locked s f =
  Mutex.lock s.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.m) f

(* ------------------------------------------------------------------ *)
(* Disk layer. Waves are flattened to plain float arrays before
   marshalling so the format does not depend on Wave's representation.
   Format 5 is one {!Record} frame whose body is the marshalled payload,
   so a torn or bit-rotted entry fails its CRC before [Marshal] ever
   sees it. The disk copy is the exact wave: every cached sample is
   read back, not only threshold crossings. Entries of older formats
   fail the magic check and are reaped like any other corrupt entry: it
   is a cache, so the miss just recomputes. *)

let disk_magic = "noisy_sta.cache.5\n"

let disk_path dir key = Filename.concat dir key

(* Decode one disk entry held fully in memory into its waves, or
   [Error `Corrupt]; shared by the read path and the startup scrub. *)
let decode_entry raw =
  match Record.single ~magic:disk_magic raw with
  | Some body -> (
      match (Marshal.from_string body 0 : (float array * float array) list) with
      | raw_waves
        when List.for_all
               (fun (ts, vs) -> Array.length ts = Array.length vs)
               raw_waves ->
          Ok (List.map (fun (ts, vs) -> Waveform.Wave.create ts vs) raw_waves)
      | _ -> Error `Corrupt
      | exception _ -> Error `Corrupt)
  | None -> Error `Corrupt

(* Report a disk op's outcome to the breaker (when the cache has one).
   An absent file or a reaped corrupt entry is a successful disk
   interaction: only I/O failures count toward opening the breaker. *)
let breaker_outcome t ok =
  match t.breaker with
  | None -> ()
  | Some b -> if ok then Breaker.success b else Breaker.failure b

let breaker_admits t =
  match t.breaker with None -> true | Some b -> Breaker.admit b

(* Every read failure is still a miss — a sweep must never die on a
   bad cache entry — but failures are classified rather than hidden:
   an absent file is a plain miss, a corrupt/truncated entry bumps
   [read_errors] and is unlinked so it cannot poison future runs, and
   an I/O error (permissions, transient FS trouble) bumps
   [read_errors] but leaves the file alone. An armed {!faults} plan
   surfaces here as simulated I/O errors, ahead of any file access.
   The breaker hears only about the disk: a corrupt or stale entry
   that was read and reaped is a healthy disk interaction (an upgrade
   leaves a directory of old-format entries), so only I/O errors and
   failed unlinks count toward opening it. *)
let disk_read t dir key =
  let path = disk_path dir key in
  let parse () =
    roll_fault ();
    if not (Sys.file_exists path) then Error `Absent
    else decode_entry (Record.read_file path)
  in
  match parse () with
  | Ok waves ->
      breaker_outcome t true;
      Some waves
  | Error `Absent ->
      breaker_outcome t true;
      None
  | Error `Corrupt | (exception (End_of_file | Stdlib.Failure _ | Invalid_argument _)) ->
      Atomic.incr t.read_errors;
      let sz = file_size path in
      (match Sys.remove path with
      | () ->
          ignore (Atomic.fetch_and_add t.disk_bytes (-sz));
          breaker_outcome t true
      | exception Sys_error _ -> breaker_outcome t false);
      None
  | exception (Sys_error _ | Injected) ->
      Atomic.incr t.read_errors;
      breaker_outcome t false;
      None

(* LRU disk eviction: when the resident-bytes gauge exceeds the
   configured cap after a write, unlink entries oldest-mtime-first
   (the same directory walk the scrub does) down to 90% of the cap —
   the hysteresis keeps steady-state writes from evicting one entry
   each. Only the disk copies go; memory-resident waves stay valid.
   [try_lock] makes concurrent writers skip rather than queue: one
   evictor at a time is plenty. *)
let maybe_evict t dir =
  match t.max_disk_bytes with
  | None -> ()
  | Some limit when Atomic.get t.disk_bytes <= limit -> ()
  | Some limit ->
      if Mutex.try_lock t.evict_m then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.evict_m)
          (fun () ->
            let target = limit / 10 * 9 in
            match Sys.readdir dir with
            | exception Sys_error _ -> ()
            | names ->
                let entries =
                  Array.to_list names
                  |> List.filter (fun n -> not (Record.is_tmp n))
                  |> List.filter_map (fun n ->
                         match Unix.stat (Filename.concat dir n) with
                         | st -> Some (st.Unix.st_mtime, st.Unix.st_size, n)
                         | exception Unix.Unix_error _ -> None)
                  |> List.sort (fun (a, _, _) (b, _, _) ->
                         compare (a : float) b)
                in
                List.iter
                  (fun (_, sz, n) ->
                    if Atomic.get t.disk_bytes > target then
                      try
                        Sys.remove (Filename.concat dir n);
                        ignore (Atomic.fetch_and_add t.disk_bytes (-sz));
                        Atomic.incr t.evictions
                      with Sys_error _ -> ())
                  entries)

let disk_write t dir key waves =
  match
    roll_fault ();
    Record.ensure_dir dir;
    let path = disk_path dir key in
    let payload =
      Marshal.to_string
        (List.map
           (fun w -> (Waveform.Wave.times w, Waveform.Wave.values w))
           waves)
        []
    in
    let entry = Record.encode ~magic:disk_magic [ payload ] in
    let replaced = file_size path in
    Record.write_atomic path entry;
    let size = String.length entry in
    ignore (Atomic.fetch_and_add t.bytes_written size);
    ignore (Atomic.fetch_and_add t.disk_bytes (size - replaced))
  with
  | () ->
      breaker_outcome t true;
      maybe_evict t dir
  | exception _ ->
      (* a full or read-only disk must not fail the run *)
      Atomic.incr t.write_errors;
      breaker_outcome t false

(* ------------------------------------------------------------------ *)

let find t key =
  let s = shard_of t key in
  match locked s (fun () -> Hashtbl.find_opt s.tbl key) with
  | Some v ->
      Atomic.incr t.hits;
      Some v
  | None -> (
      match t.disk_dir with
      | None -> None
      | Some dir when not (breaker_admits t) -> ignore dir; None
      | Some dir -> (
          match disk_read t dir key with
          | None -> None
          | Some v ->
              Atomic.incr t.hits;
              Atomic.incr t.disk_hits;
              locked s (fun () -> Hashtbl.replace s.tbl key v);
              Some v))

let store t key v =
  let s = shard_of t key in
  locked s (fun () -> Hashtbl.replace s.tbl key v);
  match t.disk_dir with
  | None -> ()
  | Some dir when not (breaker_admits t) -> ignore dir
  | Some dir -> disk_write t dir key v

let memo t key compute =
  match find t key with
  | Some v -> v
  | None ->
      Atomic.incr t.misses;
      let v = compute () in
      store t key v;
      v

let remove t key =
  let s = shard_of t key in
  locked s (fun () -> Hashtbl.remove s.tbl key);
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
      let path = disk_path dir key in
      let sz = file_size path in
      try
        Sys.remove path;
        ignore (Atomic.fetch_and_add t.disk_bytes (-sz))
      with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Startup scrub: CRC-validate disk entries newest-first (the entries
   most plausibly torn by a crash or a breaker-open window are the
   most recently written ones) under a wall-clock budget, unlinking
   anything that fails to decode plus any tmp leftovers from writes
   the process died inside. The scrub bypasses the breaker and the
   fault injector: it is the recovery path, not regular traffic. *)

type scrub_report = {
  scanned : int;
  corrupt : int;
  tmp_reaped : int;
  elapsed_s : float;
  complete : bool;
}

let scrub ?(budget_s = 2.0) ?(now = Unix.gettimeofday) t =
  let empty =
    { scanned = 0; corrupt = 0; tmp_reaped = 0; elapsed_s = 0.0; complete = true }
  in
  match t.disk_dir with
  | None -> empty
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> empty
      | names ->
          let t0 = now () in
          let tmp_reaped = ref 0 in
          let candidates = ref [] in
          Array.iter
            (fun name ->
              let path = Filename.concat dir name in
              if Record.is_tmp name then begin
                (try Sys.remove path with Sys_error _ -> ());
                incr tmp_reaped
              end
              else
                match (Unix.stat path).Unix.st_mtime with
                | mtime -> candidates := (mtime, name) :: !candidates
                | exception Unix.Unix_error _ -> ())
            names;
          let by_newest =
            List.sort (fun (a, _) (b, _) -> compare (b : float) a) !candidates
          in
          let scanned = ref 0 and corrupt = ref 0 and complete = ref true in
          let check name =
            let path = Filename.concat dir name in
            match Record.read_file path with
            | exception Sys_error _ -> ()
            | exception End_of_file -> ()
            | raw -> (
                incr scanned;
                match decode_entry raw with
                | Ok _ -> ()
                | Error `Corrupt ->
                    incr corrupt;
                    remove t name)
          in
          List.iter
            (fun (_, name) ->
              if now () -. t0 > budget_s then complete := false
              else check name)
            by_newest;
          {
            scanned = !scanned;
            corrupt = !corrupt;
            tmp_reaped = !tmp_reaped;
            elapsed_s = now () -. t0;
            complete = !complete;
          })

let hits t = Atomic.get t.hits
let disk_hits t = Atomic.get t.disk_hits
let misses t = Atomic.get t.misses
let read_errors t = Atomic.get t.read_errors
let write_errors t = Atomic.get t.write_errors
let bytes_written t = Atomic.get t.bytes_written
let disk_bytes t = Atomic.get t.disk_bytes
let evictions t = Atomic.get t.evictions

let breaker_state t =
  Option.map (fun b -> Breaker.state b) t.breaker

let breaker_opens t =
  match t.breaker with None -> 0 | Some b -> Breaker.opens b

let breaker_recloses t =
  match t.breaker with None -> 0 | Some b -> Breaker.recloses b

let breaker_short_circuits t =
  match t.breaker with None -> 0 | Some b -> Breaker.short_circuits b

let length t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.tbl))
    0 t.shards
