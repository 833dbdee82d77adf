(** A miniature Liberty-style text format for NLDM tables.

    Characterization is the slowest part of the flow, so the tables can
    be written to disk once and reloaded by the STA engine and the
    benches. The syntax is a braces-and-attributes subset of Liberty:

    {v
    library(noisy_sta) {
      cell(INVx1) {
        input_cap: 1.2e-15;
        timing(out_fall) {
          index_slew: 2e-11 5e-11 ...;
          index_load: 1e-15 2e-15 ...;
          delay { 1.1e-11 ...; ... }
          trans { ... }
        }
        timing(out_rise) { ... }
      }
    }
    v} *)

val to_string : Nldm.cell_timing list -> string

val of_string : string -> Nldm.cell_timing list
(** Raises [Failure] with a line-located message on malformed input. *)

val save : string -> Nldm.cell_timing list -> unit
(** [save path cells], atomically ({!Runtime.Record.write_atomic}). *)

val load : string -> Nldm.cell_timing list
(** Raises [Sys_error] when the file is unreadable, [Failure] on parse
    errors. *)

val find : Nldm.cell_timing list -> string -> Nldm.cell_timing
(** Raises [Not_found]. *)
