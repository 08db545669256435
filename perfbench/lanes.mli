open Elastic_netlist
open Elastic_datapath

(** Generator for the [wide-cycles] workload: [lanes] independent copies
    of the §5.1 speculative variable-latency ALU (Fig. 6(b)), each fed by
    its own operand stream drawn from the workload seed.

    Every lane has the 13 nodes and 16 channels of
    [Elastic_core.Examples.vl_speculative], with 8-bit immediate integer
    payloads, so a 256-lane design has 4096 channels.  Only the public
    [Netlist]/[Func]/[Alu]/[Scheduler] API is used: the simulator
    receives nothing but the netlist. *)

type t = {
  net : Netlist.t;
  sinks : Netlist.node_id array;  (** Lane [i]'s output sink. *)
  ops : (Alu.op * int * int) list array;  (** Lane [i]'s operand stream. *)
}

(** Channels in one lane. *)
val channels_per_lane : int

(** [generate ~lanes ~seed ~ops_per_lane] builds the design.  Lane [i]
    draws a period of [Alu.operands ~error_rate_pct:5] from a seed mixed
    from [seed] and [i], and repeats it to [ops_per_lane] operations, so
    the payload values are shared and memory stays linear in the period,
    not the run length.
    @raise Invalid_argument when [lanes] or [ops_per_lane] is not
    positive. *)
val generate : lanes:int -> seed:int -> ops_per_lane:int -> t