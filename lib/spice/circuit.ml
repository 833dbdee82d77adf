type node = int
(* -1 is ground; 0.. index the unknown nodes. *)

type mosfet_eval =
  float array -> g:int -> d:int -> s:int -> float array -> int -> unit

type t = {
  names : (string, node) Hashtbl.t;
  mutable order : string list; (* reversed creation order *)
  mutable next : int;
  mutable resistors : (node * node * float) list;
  mutable capacitors : (node * node * float) list;
  mutable vsources : (node * Source.t) list;
  mutable mosfets : (string * node * node * node * mosfet_eval) list;
}

let create () =
  {
    names = Hashtbl.create 64;
    order = [];
    next = 0;
    resistors = [];
    capacitors = [];
    vsources = [];
    mosfets = [];
  }

let ground = -1

let node t name =
  if name = "0" || name = "gnd" then ground
  else
    match Hashtbl.find_opt t.names name with
    | Some n -> n
    | None ->
        let n = t.next in
        t.next <- n + 1;
        Hashtbl.add t.names name n;
        t.order <- name :: t.order;
        n

let gnd _ = ground

let node_name t n =
  if n = ground then "0"
  else
    match List.nth_opt (List.rev t.order) n with
    | Some s -> s
    | None -> invalid_arg "Circuit.node_name: unknown node"

let node_names t = List.rev t.order

let resistor t a b r =
  if r <= 0.0 then invalid_arg "Circuit.resistor: must be positive";
  if a = b then invalid_arg "Circuit.resistor: shorted terminals";
  t.resistors <- (a, b, r) :: t.resistors

let capacitor t a b c =
  if c < 0.0 then invalid_arg "Circuit.capacitor: must be non-negative";
  if a = b then invalid_arg "Circuit.capacitor: shorted terminals";
  if c > 0.0 then t.capacitors <- (a, b, c) :: t.capacitors

let vsource t n src =
  if n = ground then invalid_arg "Circuit.vsource: cannot drive ground";
  t.vsources <- (n, src) :: t.vsources

let mosfet t ~name ~g ~d ~s eval =
  t.mosfets <- (name, g, d, s, eval) :: t.mosfets

let num_nodes t = t.next

let resistors t = List.rev t.resistors
let capacitors t = List.rev t.capacitors
let vsources t = List.rev t.vsources
let mosfets t = List.rev t.mosfets

let summary t =
  Printf.sprintf
    "circuit: %d nodes, %d R, %d C, %d V, %d MOSFETs"
    t.next
    (List.length t.resistors)
    (List.length t.capacitors)
    (List.length t.vsources)
    (List.length t.mosfets)
