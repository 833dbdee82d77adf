(** Distributed RC lines as cascaded pi-sections.

    Figure 1 of the paper models each 1000 um (Config I) or 500 um
    (Config II) wire as a uniform RC ladder with R = 8.5 ohm and
    C = 4.8 fF per section; [build] generalizes that to any section
    count while conserving total R and C. *)

type spec = {
  rtotal : float; (** total series resistance, ohms *)
  ctotal : float; (** total ground capacitance, farads *)
  nsegs : int;    (** number of pi sections (>= 1) *)
}

val build :
  Spice.Circuit.t -> prefix:string -> near:Spice.Circuit.node -> spec ->
  Spice.Circuit.node
(** Stamp the ladder into the circuit starting at [near]; returns the
    far-end node. Interior boundary nodes get C/n to ground, the two end
    boundaries C/2n each (standard pi discretization). Raises
    [Invalid_argument] on a non-positive spec field. *)

val elmore : spec -> float
(** Closed-form Elmore delay of the *continuous* uniform line seen from
    an ideal source: R*C/2. *)

val elmore_discrete : spec -> float
(** Elmore delay of the discretized ladder to its far end; converges to
    [elmore] as [nsegs] grows. *)
