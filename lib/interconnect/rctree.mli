(** RC trees: Elmore delay and higher transfer-function moments.

    The paper's E4 technique is "inspired by the Elmore delay idea
    [2]"; this module provides that machinery on general RC trees. It
    backs {!Noise_bound.bound}, Devgan's crosstalk bound, which is an
    Elmore sum with coupling currents in place of capacitances. *)

type t = {
  name : string;
  r : float;          (** resistance of the edge from the parent; 0 at root *)
  c : float;          (** grounded capacitance at this node *)
  children : t list;
}

val node : ?r:float -> ?c:float -> string -> t list -> t
(** Convenience constructor; negative [r] or [c] raise
    [Invalid_argument]. *)

val of_line : name:string -> Rcline.spec -> t
(** The ladder discretization of a uniform line, as a degenerate tree. *)

val elmore : t -> (string * float) list
(** Elmore delay (first transfer moment magnitude) from the root
    driving point to every node, in depth-first order. *)

val moments : order:int -> t -> (string * float array) list
(** [moments ~order tree] gives per node the transfer moments
    m_1 .. m_order of V(s)/V_root(s) (m_1 = -Elmore). *)
