(** Deterministic, seeded fault injection.

    One spec grammar, one armed plan with its op and injection
    counters, and one seeded draw, shared by every injector in the tree:
    the transient solver ([Spice.Transient.Fault]), the disk cache
    ([Runtime.Cache.faults]) and the network layer ([Server.Netfault]).
    Each of those keeps only its kind type and one injector value
    ({!t}), created with its own salt so the injectors draw independent
    streams.

    An armed plan is process-global for its injector: every {!roll}
    (from any domain or thread) takes the next op index, and whether
    that op faults depends only on the index and the plan — never on
    wall-clock or scheduling — so a given (plan, op sequence) faults
    the same ops on every run. The disarmed {!roll} is one atomic load. *)

(** {1 The seeded draw} *)

val bits : salt:string -> seed:int -> int -> int
(** [bits ~salt ~seed k] is the first six bytes, big-endian, of the MD5
    of ["salt:seed:k"]: 48 uniform bits, identical on every platform. *)

val uniform : salt:string -> seed:int -> int -> float
(** {!bits} scaled into [\[0, 1)]. *)

(** {1 Plans} *)

type sel =
  | Nth of { n : int }
      (** fault op number [n] (0-based, counted from {!arm}) *)
  | Fraction of { rate : float; seed : int }
      (** fault each op with probability [rate], drawn by {!uniform} *)

type 'k plan = { kind : 'k option; sel : sel }
(** [kind = None] leaves the kind to the injector's [default]. *)

(** {1 Injectors} *)

type 'k t

val create :
  salt:string -> kinds:(string * 'k) list -> default:(int -> 'k) -> 'k t
(** A disarmed injector. [kinds] is the spec vocabulary (prefix name,
    kind); [default k] is the kind a hit on op [k] gets when the plan
    names none. *)

val of_string : 'k t -> string -> ('k plan, string) result
(** Parse a spec: [[KIND:]("nth:"N | RATE["@"SEED])], [KIND] one of the
    injector's prefix names, [N >= 0], [RATE] in [\[0, 1\]], [SEED]
    defaulting to 0 — e.g. ["0.1@7"], ["nth:3"], ["drop:nth:3"],
    ["nan:0.05"]. *)

val arm : 'k t -> 'k plan -> unit
(** Install the plan and reset the op and injection counters. *)

val disarm : 'k t -> unit
val is_armed : 'k t -> bool

val injected : 'k t -> int
(** Ops faulted since the last {!arm}. *)

val roll : 'k t -> 'k option
(** Take the next op index and decide: [Some kind] faults this op.
    Always [None] (and no index is taken) while disarmed. *)
