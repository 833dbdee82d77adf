(** Symmetric sparsity analysis: reverse Cuthill-McKee reordering and
    bordered-band planning.

    Circuit MNA matrices have a fixed, structurally symmetric sparsity
    pattern. RCM permutes the unknowns so that pattern hugs the
    diagonal — except for hub vertices (a shared supply rail touches
    every gate) which no permutation can narrow. {!plan} handles those
    by demoting the worst hubs to a dense {e border}, leaving a narrow
    banded core: the arrowhead form factored by {!Bordered}. *)

type plan = {
  order : int array;
      (** vertex -> matrix row: core rows [0 .. core-1] in RCM order,
          border rows after them (by increasing vertex id) *)
  core : int;  (** number of core (banded) rows *)
  bandwidth : int;  (** half-bandwidth of the reordered core *)
}

val plan :
  n:int ->
  edges:(int * int) list ->
  ?coupled:(int * int) list ->
  max_bandwidth:int ->
  max_border:int ->
  unit ->
  plan option
(** Find an ordering of the undirected graph on vertices [0 .. n-1]
    with the given [edges] (self-loops, duplicates and out-of-range
    endpoints are ignored) whose core bandwidth is at most
    [max_bandwidth], by iteratively demoting the highest-degree core
    vertex (plus its transitive [coupled] partners — e.g. a
    voltage-source branch row must follow its node, or the core is
    left structurally singular) to the border. [None] when more than
    [max_border] demotions would be needed, or nothing remains in the
    core — callers then fall back to the dense solver. *)
