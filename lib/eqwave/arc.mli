(** The noiseless half of a Gamma_eff mapping, characterized once per
    arc.

    Everything a technique reads that depends only on the thresholds
    and the noiseless input/output pair — the transition direction, the
    noiseless critical region and slew, SGDP's overlap shift and commit
    margin, and the sensitivity tables — is a per-arc quantity, the way
    a library characterizes a cell once per (arc, slew, load). {!find}
    computes it on the first request for an arc and returns the same
    arc afterwards.

    Arcs live in a small table local to the calling domain (8 arcs, the
    most recently used kept), keyed on the two noiseless waves by
    physical identity and on the thresholds structurally. Identity is a
    sound key because a {!Waveform.Wave.t} is immutable: [Wave.create]
    copies its inputs and no accessor exposes the samples. An arc holds
    only the thresholds and the noiseless pair, never a noisy waveform,
    and the table holds each arc through an ephemeron on that pair: it
    keeps no wave alive, and an arc is collected with its waves. An
    entry is published only once it is fully built; threads sharing a
    domain can at worst lose an entry to each other, never read a
    partial one.

    Every read answers bit for bit what a fresh computation would,
    including the exception: a quantity whose computation raised
    re-raises the same exception on every read. *)

exception Unsupported of string
(** Re-exported as {!Technique.Unsupported}. *)

val sample_times : float * float -> int -> float array
(** Re-exported as {!Technique.sample_times}. *)

val critical_region_opt :
  Waveform.Wave.t -> Waveform.Thresholds.t -> Waveform.Wave.direction ->
  (float * float) option
(** First crossing of the "from" threshold to last crossing of the "to"
    threshold (0.1/0.9 Vdd per direction), or [None] when the waveform
    does not span them. *)

val critical_region :
  Waveform.Wave.t -> Waveform.Thresholds.t -> Waveform.Wave.direction ->
  float * float
(** As {!critical_region_opt}, raising {!Unsupported} in place of
    [None]. *)

type sensitivity = {
  region : float * float;
  ts : float array;
  vin : float array;
  rho : float array;
  drho_dv : float array;
  output_shift : float;
  v_grid : float array;
  rho_by_v : float array;
  drho_by_v : float array;
}
(** Re-exported, with field docs, as {!Sensitivity.t}. *)

type t

val find :
  Waveform.Thresholds.t -> Waveform.Wave.t -> Waveform.Wave.t -> t
(** [find th noiseless_in noiseless_out] is the arc of that noiseless
    pair, built now if this domain's table does not hold it. Never
    raises. *)

val direction : t -> Waveform.Wave.direction
(** Direction of the noiseless input; raises {!Unsupported} naming the
    noiseless input when it is flat. *)

val region_opt : t -> (float * float) option
(** Noiseless critical region; raises as {!direction} on a flat input. *)

val region : t -> float * float
(** As {!region_opt}, raising {!Unsupported} in place of [None]. *)

val slew : t -> float option
(** {!Waveform.Wave.slew} of the noiseless input. *)

val overlap_shift : t -> float
(** SGDP's pre-processing delta (see {!Sensitivity.overlap_shift});
    raises {!Unsupported} when it is undefined, including on a flat
    noiseless input or output. *)

val commit_margin : t -> float option
(** Time from the noiseless input's last mid crossing to the noiseless
    output's last settle-threshold crossing, [None] when the output
    never settles after it. Raises {!Unsupported} naming the noiseless
    output when it is flat. *)

val sensitivity : t -> output_shift:float -> points:int -> sensitivity
(** The sensitivity tables sampled on [points] uniform times over the
    noiseless critical region with the output shifted earlier by
    [output_shift], computed once per arc and key (up to 4 keys per
    arc, the newest kept). Shifts compare by bit pattern. The result is
    shared by every caller: do not mutate its arrays. Raises as
    {!region}, and [Invalid_argument] for [points < 2]; a failed
    computation is not stored. *)
