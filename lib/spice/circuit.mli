(** Circuit netlist construction.

    Nodes are named; the name "0" (and "gnd") is ground. Elements are
    two- or three-terminal primitives; nonlinear devices are supplied as
    evaluation closures so that the engine stays independent of any
    particular transistor model (the [device] library provides
    alpha-power-law closures). *)

type t

type node = private int
(** Ground is negative; non-ground nodes coerce to their unknown index
    in [0 .. num_nodes-1]. The representation is exposed read-only so
    the analysis engine can index arrays directly. *)

type mosfet_eval =
  float array -> g:int -> d:int -> s:int -> float array -> int -> unit
(** [eval x ~g ~d ~s out k] reads the gate, drain and source voltages
    from the state vector [x] at indices [g], [d] and [s] (a negative
    index is ground, 0 V) and writes [ids], [dids_dvg], [dids_dvd] and
    [dids_dvs] to [out.(k)] .. [out.(k+3)], where [ids] is the channel
    current flowing from the drain terminal into the device (and out of
    the source terminal). Writing in place keeps the solver's per-device
    evaluation free of boxed floats and tuples. The closure must handle
    arbitrary terminal orderings (vd < vs included) and be C1-smooth
    enough for Newton iteration. *)

val create : unit -> t

val node : t -> string -> node
(** Intern a node by name; "0" and "gnd" give the ground node. *)

val gnd : t -> node
val node_name : t -> node -> string
val node_names : t -> string list
(** All non-ground node names, in creation order. *)

val resistor : t -> node -> node -> float -> unit
(** Raises [Invalid_argument] on a non-positive resistance. *)

val capacitor : t -> node -> node -> float -> unit
(** Grounded or coupling capacitor; non-negative value required. *)

val vsource : t -> node -> Source.t -> unit
(** Ideal voltage source from the node to ground. At most one per node
    (checked at analysis time). *)

val mosfet : t -> name:string -> g:node -> d:node -> s:node -> mosfet_eval -> unit

(** Introspection used by the analysis engine and by reporting. *)

val num_nodes : t -> int
(** Non-ground node count. *)

val resistors : t -> (node * node * float) list
val capacitors : t -> (node * node * float) list
val vsources : t -> (node * Source.t) list
val mosfets : t -> (string * node * node * node * mosfet_eval) list

val summary : t -> string
(** One-line element/node count, for logs and the figure-1 bench. *)
