(** All techniques of the paper, in Table-1 order. *)

val all : Technique.t list
(** P1, P2, LSF3, E4, WLS5, SGDP. *)

val find : string -> Technique.t
(** Case-insensitive lookup by name; raises [Not_found]. *)

val names : string list
