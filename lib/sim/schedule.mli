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
    that B-half too).  No controller's
    forward outputs read a backward group, so the halves of a
    zero-latency control cluster form a chain rather than a cycle.

    {!build} condenses the strongly connected components of this half
    graph once and flattens the topological order of the condensation
    into a sweep: each node is evaluated (whole) at each of its half
    positions, and then every wire it writes is settled.  A node that
    reads nothing is evaluated once, at its F position, and a node whose
    F-half feeds nothing before its B-half once, at its B position.
    Only a cyclic half-region — a real combinational loop — iterates:
    its members are swept until a sweep writes nothing. *)

type t = {
  sweep : int array;
      (** The cycle's evaluations in order: an entry [i >= 0] evaluates
          node [i]; an entry [-1 - r] sweeps cyclic region [r] to its
          fixed point. *)
  regions : int array array;
      (** Cyclic half-regions: the distinct nodes with a half in each,
          in the order one sweep of the region evaluates them. *)
  components : int;  (** Components of the half graph's condensation. *)
}

(** [build net ~ports] computes the schedule.  Node index [i] refers to
    the [i]-th element of [Netlist.nodes net] and channel index [j] to
    the [j]-th element of [Netlist.channels net] — the same dense
    numbering the engine uses.  [ports.(i)] is node [i]'s dense
    [(ins, sel, outs)] channel indices, as the engine resolved them for
    {!Instance.layout}.  The netlist must be valid. *)
val build :
  Netlist.t -> ports:(int array * int option * int array) array -> t

(** {1 Statistics (for profiling reports)} *)

val components : t -> int

(** Number of cyclic (iterating) regions. *)
val scc_count : t -> int

(** Node count of the largest cyclic region. *)
val largest_scc : t -> int

(** Distinct nodes with a half in some cyclic region. *)
val scc_nodes : t -> int

val pp_stats : Format.formatter -> t -> unit
