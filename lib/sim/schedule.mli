open Elastic_netlist

(** Static evaluation schedule for the combinational phase of a cycle.

    The channel wires of an elastic netlist have single-writer field
    groups: the forward group [F(c)] ([V+], data, [S-]) is written by
    [c]'s source node and the backward group [B(c)] ([S+], [V-]) by its
    destination.  A node {e depends} on another when its equations
    ({!Control.table}) read a group the other writes; the per-kind read
    sets follow those equations (an [Eb] reads nothing — its outputs
    are pure register functions — which is what keeps most of the graph
    acyclic).

    {!build} condenses the strongly connected components of this graph
    and orders the condensation topologically.  Evaluating in that order,
    an acyclic node settles in exactly one evaluation; only the cyclic
    combinational regions (zero-latency elastic control clusters around
    [Eb0]s, early muxes, forks and shared modules) iterate locally, and
    within them a node is re-evaluated only when a wire it reads has
    actually changed. *)

type component =
  | Single of int  (** Acyclic node: one evaluation settles it. *)
  | Scc of int array  (** Cyclic region: iterate members to fixpoint. *)

type t = {
  order : component array;  (** Topological order of the condensation. *)
  comp_of : int array;  (** Node index -> component index. *)
  readers_f : int array array;
      (** Channel index -> nodes whose eval reads [F(c)]. *)
  readers_b : int array array;
      (** Channel index -> nodes whose eval reads [B(c)]. *)
  src_of : int array;  (** Channel index -> writer node of [F(c)]. *)
  dst_of : int array;  (** Channel index -> writer node of [B(c)]. *)
}

(** [build net] computes the schedule.  Node index [i] refers to the
    [i]-th element of [Netlist.nodes net] and channel index [j] to the
    [j]-th element of [Netlist.channels net] — the same dense numbering
    the engine uses.  The netlist must be valid. *)
val build : Netlist.t -> t

(** {1 Statistics (for profiling reports)} *)

val components : t -> int

(** Number of cyclic (iterating) components. *)
val scc_count : t -> int

(** Size of the largest cyclic component. *)
val largest_scc : t -> int

(** Total nodes inside cyclic components. *)
val scc_nodes : t -> int

val pp_stats : Format.formatter -> t -> unit
