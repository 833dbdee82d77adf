type net_load =
  | Lumped of float
  | Line of Interconnect.Rcline.spec

type instance = { name : string; cell : string; input : string; output : string }

type t = {
  mutable prim_inputs : string list;  (* reversed *)
  mutable prim_outputs : string list; (* reversed *)
  mutable insts : instance list;      (* reversed *)
  drivers : (string, instance option) Hashtbl.t; (* None = primary input *)
  loads : (string, net_load) Hashtbl.t;
}

let create () =
  {
    prim_inputs = [];
    prim_outputs = [];
    insts = [];
    drivers = Hashtbl.create 32;
    loads = Hashtbl.create 8;
  }

let input t name =
  if Hashtbl.mem t.drivers name then
    invalid_arg ("Netlist.input: net already driven: " ^ name);
  Hashtbl.replace t.drivers name None;
  t.prim_inputs <- name :: t.prim_inputs

let output t name = t.prim_outputs <- name :: t.prim_outputs

let gate t ~cell ~name ~input ~output =
  if Hashtbl.mem t.drivers output then
    invalid_arg ("Netlist.gate: net already driven: " ^ output);
  let inst = { name; cell; input; output } in
  Hashtbl.replace t.drivers output (Some inst);
  t.insts <- inst :: t.insts

let set_load t net load = Hashtbl.replace t.loads net load

let inputs t = List.rev t.prim_inputs
let outputs t = List.rev t.prim_outputs
let instances t = List.rev t.insts

let nets t =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  List.iter add (inputs t);
  List.iter
    (fun i ->
      add i.input;
      add i.output)
    (instances t);
  List.rev !out

let driver_of t net =
  match Hashtbl.find_opt t.drivers net with
  | None -> raise Not_found
  | Some None -> `Input
  | Some (Some inst) -> `Gate inst

let receivers_of t net =
  List.filter (fun i -> i.input = net) (instances t)

let load_of t net = Hashtbl.find_opt t.loads net

let topological_nets t =
  (* Kahn's algorithm over nets: a net depends on its driving gate's
     input net. *)
  let all = nets t in
  let dep net =
    match driver_of t net with
    | `Input -> None
    | `Gate inst -> Some inst.input
    | exception Not_found -> None
  in
  let out = ref [] in
  let state = Hashtbl.create 32 in (* net -> [`Visiting | `Done] *)
  let rec visit net =
    match Hashtbl.find_opt state net with
    | Some `Done -> ()
    | Some `Visiting -> failwith "Netlist: combinational cycle"
    | None ->
        Hashtbl.replace state net `Visiting;
        (match dep net with None -> () | Some d -> visit d);
        Hashtbl.replace state net `Done;
        out := net :: !out
  in
  List.iter visit all;
  List.rev !out
