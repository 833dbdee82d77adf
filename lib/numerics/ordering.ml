type graph = { gn : int; adj : int array array }

let build ~n edges =
  if n < 0 then invalid_arg "Ordering.build: negative size";
  let tbl = Array.make (max n 1) [] in
  List.iter
    (fun (a, b) ->
      if a >= 0 && b >= 0 && a < n && b < n && a <> b then begin
        tbl.(a) <- b :: tbl.(a);
        tbl.(b) <- a :: tbl.(b)
      end)
    edges;
  let adj =
    Array.init n (fun v -> Array.of_list (List.sort_uniq compare tbl.(v)))
  in
  { gn = n; adj }


(* Degree counting only masked neighbours of a masked vertex. *)
let masked_degree g mask v =
  let d = ref 0 in
  Array.iter (fun w -> if mask.(w) then incr d) g.adj.(v);
  !d

(* BFS from [start] over the masked subgraph; returns the vertices of
   the last (deepest) level. Used to find a pseudo-peripheral starting
   vertex: starting RCM from a vertex of near-maximal eccentricity is
   what keeps level sets (and hence the bandwidth) narrow. *)
let bfs_last_level g mask start =
  let seen = Array.make g.gn false in
  seen.(start) <- true;
  let level = ref [ start ] in
  let last = ref [ start ] in
  while !level <> [] do
    last := !level;
    let next = ref [] in
    List.iter
      (fun v ->
        Array.iter
          (fun w ->
            if mask.(w) && not seen.(w) then begin
              seen.(w) <- true;
              next := w :: !next
            end)
          g.adj.(v))
      !level;
    level := !next
  done;
  !last

let min_degree_of g mask vs =
  List.fold_left
    (fun best v ->
      match best with
      | None -> Some v
      | Some b ->
          let dv = masked_degree g mask v and db = masked_degree g mask b in
          if dv < db || (dv = db && v < b) then Some v else Some b)
    None vs
  |> Option.get

(* Reverse Cuthill-McKee over the masked subgraph. Returns the masked
   vertices in elimination order. Each connected component starts from
   a pseudo-peripheral vertex (min-degree seed, one BFS refinement). *)
let rcm_masked g mask =
  let n = g.gn in
  let visited = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  let scratch = Array.make n 0 in
  for seed = 0 to n - 1 do
    if mask.(seed) && not visited.(seed) then begin
      (* Pseudo-peripheral start: hop to the far end of the BFS tree
         rooted at the seed and take its min-degree vertex. *)
      let far = bfs_last_level g mask seed in
      let start = min_degree_of g mask far in
      (* Cuthill-McKee BFS, neighbours visited in increasing masked
         degree. *)
      let q = Queue.create () in
      visited.(start) <- true;
      Queue.add start q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        order := v :: !order;
        incr count;
        let k = ref 0 in
        Array.iter
          (fun w ->
            if mask.(w) && not visited.(w) then begin
              visited.(w) <- true;
              scratch.(!k) <- w;
              incr k
            end)
          g.adj.(v);
        let nb = Array.sub scratch 0 !k in
        Array.sort
          (fun a b ->
            let c = compare (masked_degree g mask a) (masked_degree g mask b) in
            if c <> 0 then c else compare a b)
          nb;
        Array.iter (fun w -> Queue.add w q) nb
      done
    end
  done;
  (* [order] was accumulated in reverse already — exactly the R of
     RCM. *)
  Array.of_list !order

let bandwidth g pos =
  let bw = ref 0 in
  for v = 0 to g.gn - 1 do
    if pos.(v) >= 0 then
      Array.iter
        (fun w ->
          if pos.(w) >= 0 then begin
            let d = abs (pos.(v) - pos.(w)) in
            if d > !bw then bw := d
          end)
        g.adj.(v)
  done;
  !bw

type plan = { order : int array; core : int; bandwidth : int }

let plan ~n ~edges ?(coupled = []) ~max_bandwidth ~max_border () =
  if n <= 0 then None
  else begin
    let g = build ~n edges in
    (* Vertices that must enter the border together (a voltage-source
       branch row is meaningless without its node: leaving one behind
       would give the banded core a structurally singular row). The
       closure is transitive. *)
    let partners = Array.make n [] in
    List.iter
      (fun (a, b) ->
        if a >= 0 && b >= 0 && a < n && b < n && a <> b then begin
          partners.(a) <- b :: partners.(a);
          partners.(b) <- a :: partners.(b)
        end)
      coupled;
    let in_core = Array.make n true in
    let border_count = ref 0 in
    let demote v0 =
      let stack = ref [ v0 ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            if in_core.(v) then begin
              in_core.(v) <- false;
              incr border_count;
              List.iter (fun w -> stack := w :: !stack) partners.(v)
            end
      done
    in
    let rec attempt () =
      let seq = rcm_masked g in_core in
      if Array.length seq = 0 then None
      else begin
        let pos = Array.make n (-1) in
        Array.iteri (fun k v -> pos.(v) <- k) seq;
        let bw = bandwidth g pos in
        if bw <= max_bandwidth then Some (seq, bw)
        else begin
          (* Demote the core vertex of maximal core degree — the hub
             (e.g. a shared supply node) that no reordering can fix. *)
          let best = ref (-1) in
          let bestd = ref (-1) in
          for v = 0 to n - 1 do
            if in_core.(v) then begin
              let d = masked_degree g in_core v in
              if d > !bestd then begin
                bestd := d;
                best := v
              end
            end
          done;
          if !best < 0 then None
          else begin
            demote !best;
            if !border_count > max_border then None else attempt ()
          end
        end
      end
    in
    match attempt () with
    | None -> None
    | Some (seq, bw) ->
        let order = Array.make n (-1) in
        Array.iteri (fun k v -> order.(v) <- k) seq;
        let core = Array.length seq in
        let next = ref core in
        for v = 0 to n - 1 do
          if order.(v) < 0 then begin
            order.(v) <- !next;
            incr next
          end
        done;
        Some { order; core; bandwidth = bw }
  end
