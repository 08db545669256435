(** The half graph of a netlist, read from the controllers' tables.

    A channel's forward group [F(c)] ([V+], payload, [S-]) is written
    by its source node, its backward group [B(c)] ([S+], [V-]) by its
    destination: by a node's F half and B half, or a shared module's
    pair for the way (way 0's B half also owns the hint [Sel]).  A half
    reads the channel bits its assigns in the node's {!Control.program}
    read, through the program's internal nets, and the payloads the
    tables do not carry; each shape's halves are derived once per
    process ({!Control.memo}).  An edge runs from the half writing a
    group to every half reading it; a topological order is the sweep, in
    which each half runs once, after all it reads, and a cyclic region
    is a combinational loop ([Engine.create] refuses it, lint reports
    E102). *)

type t = {
  nodes : Netlist.node array;  (** [Netlist.nodes], by node index *)
  channels : Netlist.channel array;  (** [Netlist.channels], by index *)
  ports : (int array * int option * int array) array;
      (** per node, the channel indices of its data inputs, its select
          (a mux's, or a shared module's hint) and its outputs, in port
          order; [-1] (or [None]) for a port with no channel *)
  regions : int list list;
      (** the cyclic regions in topological order, each the channel
          indices, ascending, read along its edges *)
  sweep : int array;
      (** every half in topological order, packed ({!node}, {!way},
          {!backward}); empty when [regions] is not *)
}

(** A channel with an end that names no node or no port of it, and a
    port with no channel, are left out (structural errors, E001-E003);
    a shared module has fewer than 2{^ 20} ways. *)
val build : Netlist.t -> t

(** The node index of a packed half; its way (0 but in a shared
    module); whether it is a B half. *)
val node : int -> int

val way : int -> int

val backward : int -> bool

(** [components succs]: the strongly connected components of the graph
    with an edge [v -> w] for each [w] in [succs.(v)], in topological
    order (a component before every component it reaches). *)
val components : int list array -> int list list

(** The names of these channels, the first [limit] (6), and their count. *)
val cycle_names : ?limit:int -> Netlist.t -> Netlist.channel_id list -> string

(** The cyclic regions of a netlist's half graph as E102 (comb-cycle)
    findings, regions that share a channel as one, named by its least
    channel id, with an [Insert_bubble] fix-it there: the verdict on
    combinational loops of lint, the flow verifier, {!Timing} and the
    marked-graph bounds ([Engine.create] refuses the same regions). *)
val combinational_cycle : Netlist.t -> Diagnostic.t list

(** Why a static analysis refuses a netlist: its first structural error
    (E001-E004), else its first combinational loop. *)
val refusal : Netlist.t -> Diagnostic.t option
