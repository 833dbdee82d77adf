(** Gate-level netlists for the STA engine.

    A netlist is a DAG of cell instances connected by nets. Primary
    inputs carry externally supplied transitions; every net has one
    driver (a primary input or a cell output) and any number of
    receiver pins. Nets may carry an RC interconnect description used
    for wire delay, and may be declared coupled to an aggressor for
    noise-aware analysis. *)

type net_load =
  | Lumped of float
      (** extra lumped capacitance on the net (on top of pin caps) *)
  | Line of Interconnect.Rcline.spec
      (** a distributed line between driver and receivers *)

type t

val create : unit -> t

val input : t -> string -> unit
(** Declare a primary input net. *)

val output : t -> string -> unit
(** Mark a net as a primary output (observed endpoint). *)

val gate : t -> cell:string -> name:string -> input:string -> output:string -> unit
(** Instantiate an (inverting) cell from the library between two nets.
    Raises [Invalid_argument] if the output net already has a driver. *)

val set_load : t -> string -> net_load -> unit
(** Attach interconnect to a net (between its driver and receivers). *)

val inputs : t -> string list
val outputs : t -> string list
val nets : t -> string list

type instance = { name : string; cell : string; input : string; output : string }

val instances : t -> instance list
val driver_of : t -> string -> [ `Input | `Gate of instance ]
(** Raises [Not_found] for undriven nets. *)

val receivers_of : t -> string -> instance list
val load_of : t -> string -> net_load option

val topological_nets : t -> string list
(** Nets in driver-before-receiver order. Raises
    [Failure "Netlist: combinational cycle"] on cyclic netlists. *)
