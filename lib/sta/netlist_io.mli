(** Textual gate-level netlist format.

    A small line-oriented structural format so designs can live in
    files and flow through the CLI:

    {v
    # two-stage chain with a coupled bus
    input in
    gate u1 INVx1 in n1
    gate u2 INVx4 n1 bus
    line bus 25.5 14.4e-15 6
    cap n1 2e-15
    gate u3 INVx16 bus out
    output out
    v}

    Lines: [input <net>], [output <net>],
    [gate <name> <cell> <in-net> <out-net>],
    [line <net> <rtotal> <ctotal> <nsegs>], [cap <net> <farads>].
    '#' starts a comment; blank lines are ignored. *)

val of_string : string -> Netlist.t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val to_string : Netlist.t -> string
(** Round-trips through {!of_string}. *)

val load : string -> Netlist.t
(** [of_string] over the file's contents. *)
