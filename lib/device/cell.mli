(** Standard cells and their transistor-level expansion.

    The experimental setup of the paper (Figure 1) uses inverters of
    drive strengths x1, x4, x16 and x64 from a 0.13 um library; these
    are reconstructed here by width scaling of a unit inverter. The
    library also carries two-input NAND/NOR gates (characterized per
    pin with the other input held at its controlling-complement value)
    and two-stage buffers, whose large intrinsic delay produces the
    non-overlapping input/output transitions that break WLS5 and
    motivate SGDP's alignment step. *)

type kind =
  | Inverter
  | Buffer of int
      (** two-stage buffer; the payload is the first stage's drive as a
          fraction divisor (stage1 drive = drive / divisor, min 1) *)
  | Nand2
  | Nor2

type t = {
  name : string;
  kind : kind;
  drive : int;     (** drive-strength multiple of the unit inverter *)
  wn : float;      (** NMOS width of the output stage, m *)
  wp : float;      (** PMOS width of the output stage, m *)
}

val inv : Process.t -> drive:int -> t
(** [inv process ~drive] is an inverter of the given strength. Raises
    [Invalid_argument] when [drive < 1]. *)

val buf : Process.t -> drive:int -> t
(** Two-stage buffer: INV(drive/4, min 1) -> INV(drive). *)

val nand2 : Process.t -> drive:int -> t
(** Series NMOS stack (2x width to compensate), parallel PMOS. *)

val nor2 : Process.t -> drive:int -> t
(** Parallel NMOS, series PMOS stack (2x width). *)

val inv_x1 : t
val inv_x4 : t
val inv_x16 : t
val inv_x64 : t
(** The Figure-1 cells, on the [Process.c13] corner. *)

val buf_x16 : t
(** The non-overlap experiment's receiver. *)

val inverting : t -> bool
(** Whether the characterized arc is negative-unate (true for all kinds
    except buffers). *)

val input_cap : Process.t -> t -> float
(** Input (gate) capacitance of the cell's timed pin, farads. *)

val instantiate :
  Process.t -> t -> ckt:Spice.Circuit.t ->
  input:Spice.Circuit.node -> output:Spice.Circuit.node ->
  vdd_node:Spice.Circuit.node -> name:string -> unit
(** Expand the cell into the circuit: channel devices plus gate, Miller
    and junction capacitances. For NAND2/NOR2 the timed pin is input A;
    pin B is tied to its non-controlling rail (so the cell behaves as
    its characterized single-input arc). [vdd_node] must be held at the
    supply by the caller (one shared DC source per circuit). *)

val attach_supply : Process.t -> Spice.Circuit.t -> Spice.Circuit.node
(** Create (or reuse) the "vdd" node and bind it to a DC source at the
    process supply. Call once per circuit. *)
