type t = { name : string; r : float; c : float; children : t list }

let node ?(r = 0.0) ?(c = 0.0) name children =
  if r < 0.0 then invalid_arg "Rctree.node: negative resistance";
  if c < 0.0 then invalid_arg "Rctree.node: negative capacitance";
  { name; r; c; children }

let of_line ~name (spec : Rcline.spec) =
  let n = spec.Rcline.nsegs in
  let rseg = spec.Rcline.rtotal /. float_of_int n in
  let cseg = spec.Rcline.ctotal /. float_of_int n in
  let rec chain i =
    let c = if i = n then cseg /. 2.0 else cseg in
    let children = if i = n then [] else [ chain (i + 1) ] in
    { name = Printf.sprintf "%s.%d" name i; r = rseg; c; children }
  in
  { name = name ^ ".0"; r = 0.0; c = cseg /. 2.0; children = [ chain 1 ] }

(* One moment-propagation pass: given per-node weights w (initially the
   capacitances), produce per-node sums  m(i) = sum over edges e on the
   root->i path of R_e * (total weight in the subtree hanging under e).
   This is the classical O(n) tree-moment recursion. *)
let propagate weights t =
  let out = ref [] in
  (* Bottom-up subtree weight, top-down accumulation. *)
  let rec subtree_weight t =
    weights t.name
    +. List.fold_left (fun a ch -> a +. subtree_weight ch) 0.0 t.children
  in
  let rec walk acc t =
    (* acc = sum over path edges of R_e * S_e, already including t.r *)
    out := (t.name, acc) :: !out;
    List.iter (fun ch -> walk (acc +. (ch.r *. subtree_weight ch)) ch) t.children
  in
  walk 0.0 t;
  List.rev !out

let elmore t =
  let caps = Hashtbl.create 64 in
  let rec collect t =
    Hashtbl.replace caps t.name t.c;
    List.iter collect t.children
  in
  collect t;
  propagate (fun n -> Hashtbl.find caps n) t

let moments ~order t =
  if order < 1 then invalid_arg "Rctree.moments: order must be >= 1";
  let caps = Hashtbl.create 64 in
  let rec collect t =
    Hashtbl.replace caps t.name t.c;
    List.iter collect t.children
  in
  collect t;
  (* m_k(i) = -sum_e R_e * S_e(k)  with subtree weights
     w_k(j) = C_j * m_{k-1}(j), m_0 = 1. *)
  let prev = Hashtbl.create 64 in
  let rec init t =
    Hashtbl.replace prev t.name 1.0;
    List.iter init t.children
  in
  init t;
  let results = Hashtbl.create 64 in
  let record name k v =
    let arr =
      match Hashtbl.find_opt results name with
      | Some a -> a
      | None ->
          let a = Array.make order 0.0 in
          Hashtbl.replace results name a;
          a
    in
    arr.(k - 1) <- v
  in
  for k = 1 to order do
    let w name = Hashtbl.find caps name *. Hashtbl.find prev name in
    let sums = propagate w t in
    List.iter (fun (name, s) -> record name k (-.s)) sums;
    List.iter (fun (name, s) -> Hashtbl.replace prev name (-.s)) sums
  done;
  (* Emit in the tree's depth-first order. *)
  let out = ref [] in
  let rec walk t =
    out := (t.name, Hashtbl.find results t.name) :: !out;
    List.iter walk t.children
  in
  walk t;
  List.rev !out
