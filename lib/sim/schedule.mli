open Elastic_netlist

(** Static evaluation schedule for the combinational phase of a cycle.

    The channel wires of an elastic netlist have single-writer field
    groups: the forward group [F(c)] ([V+], data, [S-]) is written by
    [c]'s source node and the backward group [B(c)] ([S+], [V-]) by its
    destination.  Each node therefore has two {e halves}: its F-half
    writes its outputs' forward groups and its B-half its inputs'
    backward groups.  The per-kind read sets follow the node's equations
    ({!Control.table}); an [Eb] reads nothing — its outputs are pure
    register functions — which is what keeps most of the graph acyclic.
    A half depends on the halves that write what its node reads:
    [F(src c)] precedes the F-half of a node that reads [F(c)],
    [B(dst c)] precedes the B-half of a node that reads [B(c)], and
    every node's F-half precedes its own B-half (so [F(src c)] precedes
    that B-half too).  No controller's forward outputs read a backward
    group, so the halves of a zero-latency control cluster form a chain
    rather than a cycle.

    {!build} orders this half graph topologically into a sweep, in
    which each half runs once, after every half it reads.  A cyclic
    half graph is a real combinational loop: {!build} refuses it. *)

type t = {
  sweep : int array;
      (** The cycle's half evaluations in order: entry [h] is half [h]
          of node [h / 2], its F-half when [h] is even, its B-half when
          odd.  A half that writes nothing (a source's B-half, a sink's
          F-half) is not listed. *)
}

(** [build net ~ports] computes the schedule.  Node index [i] refers to
    the [i]-th element of [Netlist.nodes net] and channel index [j] to
    the [j]-th element of [Netlist.channels net] — the same dense
    numbering the engine uses.  [ports.(i)] is node [i]'s dense
    [(ins, sel, outs)] channel indices, as the engine resolved them for
    {!Instance.layout}.  The netlist must be valid.  [Error cs] when the
    half graph is cyclic: [cs] are the dense indices, ascending, of the
    channels read along the first cyclic region's edges. *)
val build :
  Netlist.t ->
  ports:(int array * int option * int array) array ->
  (t, int list) result

(** Number of half evaluations in a cycle: the sweep's length. *)
val halves : t -> int

(** ["N halves in one sweep"], for profiling reports. *)
val pp_stats : Format.formatter -> t -> unit
