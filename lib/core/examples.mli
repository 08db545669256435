open Elastic_kernel
open Elastic_netlist
open Elastic_datapath

(** The paper's two worked designs (§5), each in a non-speculative and a
    speculative version built from the library's primitives.

    Both speculative versions share the same replay template: the fast
    (speculative) result enters channel 0 of a shared module, the slow
    (authoritative) result enters channel 1 through an empty EB, and the
    error detector drives both the early-evaluation multiplexor's select
    and the shared module's scheduler hint.  A correct speculation costs
    nothing; a misprediction replays through channel 1, losing exactly one
    cycle. *)

type design = {
  d_net : Netlist.t;
  d_sink : Netlist.node_id;
  d_name : string;
}

(** {1 §5.1 — Variable-latency ALU (Fig. 6)} *)

(** Fig. 6(a): the stalling unit — approximate and exact ALU with the
    error detector wired into the stage controller. *)
val vl_stalling : ops:(Alu.op * int * int) list -> design

(** Fig. 6(b): speculation with replay; the critical path no longer runs
    through the error detector and the elastic controller. *)
val vl_speculative : ops:(Alu.op * int * int) list -> design

(** Like {!vl_speculative} but choosing the recovery-buffer
    implementation: with plain [Eb] buffers the anti-tokens of correct
    predictions crawl back one cycle per buffer and throughput drops below
    1 — the bottleneck §4.1 describes and the Fig. 5 EB (§4.3) removes. *)
val vl_speculative_with :
  recovery:Netlist.buffer_kind -> ops:(Alu.op * int * int) list -> design

(** Golden results: [G (exact op)] for each operation. *)
val vl_reference : (Alu.op * int * int) list -> Value.t list

(** [lanes k net] is [k] disjoint copies of [net], built with
    {!Netlist.add_node} and {!Netlist.connect}: lane [i] names its nodes
    ["l<i>.<name>"] and keeps the kinds, ports and widths.  [lanes 256]
    of a {!vl_speculative} netlist has 4096 channels, the shape of the
    perfbench wide-cycles design; bench E13 and the compile-scaling test
    time netlist build and [Engine.create] on it. *)
val lanes : int -> Netlist.t -> Netlist.t

(** {1 §5.2 — Resilient (SECDED-protected) adder (Fig. 7)} *)

type rs_op = {
  a : int64;
  b : int64;
  flip_a : int option;  (** Codeword bit of [a] flipped in flight. *)
  flip_b : int option;
}

(** Workload with single-bit upsets at approximately the given rate. *)
val rs_ops : error_rate_pct:int -> seed:int -> int -> rs_op list

(** Fig. 7(a): SECDED correction as an extra pipeline stage before the
    adder — one cycle deeper, error-rate independent. *)
val rs_nonspeculative : ops:rs_op list -> design

(** Fig. 7(b): the adder starts on unchecked operands; on a detected
    error the addition replays with the corrected values. *)
val rs_speculative : ops:rs_op list -> design

(** Like {!rs_speculative} but choosing the recovery-buffer
    implementation ([Eb0] is the default; with plain [Eb] the returning
    anti-tokens crawl — see {!vl_speculative_with} and lint W104). *)
val rs_speculative_with :
  recovery:Netlist.buffer_kind -> ops:rs_op list -> design

(** {!rs_speculative} plus an error-severity tap: a fourth fork way feeds
    [max] of the two operands' SECDED decode status (0 = clean,
    1 = corrected, 2 = double error detected) into a dedicated "alarm"
    sink, whose node id is returned. *)
val rs_speculative_alarmed :
  ops:rs_op list -> design * Netlist.node_id

(** Detection on that sink: a value [>= 2]; false on a non-int. *)
val alarm_tripped : Value.t -> bool

(** The §5.2 claim under adversarial faults (bench E7) as one value, on
    [ops] ([rs_ops ~error_rate_pct:0 ~seed:5 400] in the bench). *)
type secded_campaign = {
  sc_net : Netlist.t;  (** {!rs_speculative_alarmed} on [ops]. *)
  sc_alarms : (Netlist.node_id * (Value.t -> bool)) list;
      (** Its "alarm" sink, with {!alarm_tripped}. *)
  sc_bus : Netlist.channel_id;  (** The 144-bit operand bus. *)
  sc_cycles : int;  (** 450 cycles classified... *)
  sc_settle : int;  (** ...plus 60 to settle. *)
  sc_groups : (string * Elastic_fault.Fault.t list list) list;
      (** Faults on the bus, seed 2009, cycles 2..349: ["single"], 120
          one-bit upsets; ["double"], 40 two-bit upsets in operand a;
          ["glitch"], a stall then a dropped valid at cycle 25. *)
}

val secded_campaign : ops:rs_op list -> secded_campaign

(** Its first [count] (at most 120) ["single"] scenarios. *)
val secded_flips :
  secded_campaign -> count:int -> Elastic_fault.Fault.t list list

(** Golden sums (errors corrected). *)
val rs_reference : rs_op list -> Value.t list

(** {1 §1 motivation — branch speculation on a next-PC loop}

    A small program with two backward branches of different biases runs
    on an elastic next-PC loop; applying the recipe to the fetch block
    yields the branch-prediction structure of the paper's introduction.
    Used by [examples/processor_pipeline.ml] and the A3 bench section. *)

type pc_loop = {
  pl_net : Netlist.t;
  pl_mux : Netlist.node_id;  (** The next-PC multiplexor to speculate on. *)
  pl_sink : Netlist.node_id;  (** The committed instruction stream. *)
}

val pc_loop : unit -> pc_loop

(** Program counter / iteration step of a committed loop token. *)
val pc_of : int -> int
