(** The paper's experimental configurations (Section 4.1, Figure 1).

    Each signal path is an inverter chain INVx1 -> INVx4 driving a
    distributed RC line whose far end feeds INVx16 loaded by INVx64.
    Aggressor lines run parallel to the victim and couple through
    distributed Cm. Config I: one aggressor, 1000 um lines, 100 fF
    total coupling. Config II: two aggressors flanking the victim,
    500 um lines, 100 fF coupling per pair. Inputs get 150 ps slews;
    200 aggressor-alignment cases span a 1 ns window. *)

type t = {
  name : string;
  proc : Device.Process.t;
  n_aggressors : int;       (** 1 or 2 *)
  line : Interconnect.Rcline.spec;
  cm_total : float;         (** coupling per adjacent line pair *)
  input_slew : float;       (** 10-90 input transition time *)
  victim_rising : bool;
  aggressor_rising : bool;  (** opposite-phase coupling by default *)
  victim_t0 : float;        (** victim input ramp start *)
  window : float;           (** aggressor alignment range (1 ns) *)
  window_offset : float;    (** window-center shift relative to
                                [victim_t0]; negative means the noise
                                mostly arrives before/during the victim
                                transition, which is the regime the
                                paper's timing cases sweep *)
  cases : int;              (** alignment cases (200) *)
  dt : float;               (** full-chain simulation step *)
  tstop : float;
  receiver : Device.Cell.t; (** the gate under analysis (INVx16) *)
  load : Device.Cell.t;     (** its fanout load (INVx64) *)
}

val config_i : t
val config_ii : t

val config_i_buffer : t
(** Configuration I with a two-stage BUFx16 receiver: its intrinsic
    delay separates the input and output transitions, exercising the
    paper's non-overlapping case (WLS5 breaks; SGDP pre-shifts). *)

val with_cases : t -> int -> t
(** Same scenario with a different case count (tests use small ones). *)

val fingerprint : t -> string
(** Content key for simulation caching: covers every field that shapes
    a single (scenario, tau) simulation — process corner, line and
    coupling values, slews, polarities, cells, solver step and span —
    but not the label ([name]) or the sweep bookkeeping ([cases],
    [window], [window_offset]), so cached cases survive sweep-shape
    changes. The process and the two cells are keyed by name: two
    corners or cells that share a name share cache keys. *)

val taus : t -> float array
(** The aggressor input start times: [cases] values uniformly covering
    [victim_t0 - window/2, victim_t0 + window/2]. *)

(** Node names of interest in the built circuit. *)

val victim_far_node : t -> string
(** in_u: receiver input. *)

val victim_rcv_node : t -> string
(** out_u: receiver (x16) output. *)

val build :
  t -> aggressor_active:bool -> tau:float -> Spice.Circuit.t * (string * float) list
(** Construct the full circuit for one case. When [aggressor_active] is
    false the aggressor inputs are held at their initial rail (the
    noiseless victim-only run; [tau] is then ignored). Also returns DC
    initial-guess hints (node, voltage) derived from the logic levels. *)

val chain_cells : t -> Device.Cell.t * Device.Cell.t * Device.Cell.t * Device.Cell.t
(** (x1, x4, receiver, load) — the chain's cells in driving order. *)
