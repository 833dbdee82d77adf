type t = {
  jobs : int;
  mutable domains : unit Domain.t list;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable stopping : bool;
}

let worker t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cv t.m
    done;
    match Queue.take_opt t.queue with
    | None ->
        (* stopping and drained *)
        Mutex.unlock t.m
    | Some task ->
        Mutex.unlock t.m;
        task ();
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> Int.max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      jobs;
      domains = [];
      queue = Queue.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      stopping = false;
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let sequential_map n f = Array.init n f

let map ?chunk t n f =
  if n < 0 then invalid_arg "Pool.map: negative size";
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then sequential_map n f
  else begin
    let chunk =
      match chunk with
      | Some c -> Int.max 1 c
      | None ->
          (* Several chunks per domain so a slow tail rebalances, but
             not so many that cursor traffic dominates. *)
          Int.max 1 (n / (4 * t.jobs))
    in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let pending = Atomic.make n in
    let error = Atomic.make None in
    let done_m = Mutex.create () in
    let done_cv = Condition.create () in
    let run_chunks () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add cursor chunk in
        if start >= n then continue := false
        else begin
          let stop = Int.min n (start + chunk) in
          for i = start to stop - 1 do
            if Atomic.get error = None then
              try results.(i) <- Some (f i)
              with e ->
                ignore (Atomic.compare_and_set error None (Some e))
          done;
          (* Every claimed index is accounted for exactly once, even
             when skipped after an error, so [pending] reaches 0. *)
          let left = Atomic.fetch_and_add pending (start - stop) + (start - stop) in
          if left = 0 then begin
            Mutex.lock done_m;
            Condition.broadcast done_cv;
            Mutex.unlock done_m
          end
        end
      done
    in
    (* Wake the workers, then join the sweep from this domain too. *)
    Mutex.lock t.m;
    for _ = 2 to t.jobs do
      Queue.add run_chunks t.queue
    done;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    run_chunks ();
    Mutex.lock done_m;
    while Atomic.get pending <> 0 do
      Condition.wait done_cv done_m
    done;
    Mutex.unlock done_m;
    match Atomic.get error with
    | Some e -> raise e
    | None ->
        Array.map
          (function Some v -> v | None -> assert false)
          results
  end

let maybe_map ?chunk pool n f =
  match pool with
  | None -> sequential_map n f
  | Some t -> map ?chunk t n f

(* Cooperative cancellation: the budget is installed in the calling
   domain's local storage, so a pool worker running [f] as part of a
   task gets exactly its own deadline and sibling workers are
   unaffected. [None] means unbounded and costs nothing. *)
let with_deadline ?ms f =
  match ms with
  | None -> f ()
  | Some ms -> Spice.Transient.Deadline.with_budget ~ms f
