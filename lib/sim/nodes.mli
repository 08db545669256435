open Elastic_kernel
open Elastic_netlist

(** The per-engine flat node tables: what the per-node phases of a
    step read, compiled once at [Engine.create] from the laid-out
    instances ({!Instance.layout}).

    Every node has a role tag and its register and payload bases in
    [int] arrays indexed by dense node index, and its ports in one
    shared [int] array: the begin-cycle and clock-edge loops, which
    both backends share, and the arena's halves read these and never an
    {!Instance.t}.  The begin-cycle and the clock edge run one loop per
    role over int rows holding each node's index, ports, register base
    and payload base; they test boundary events on the raw control codes
    ({!Signal.code} layout) directly and read a payload only where a
    token moves.  Only the nodes a phase acts on have a row in it. *)

(** {1 The tables} *)

type t = {
  insts : Instance.t array;
      (** the instances, by dense node index, for the cold paths (node
          ids in errors, a source's offered value) *)
  regs : int array;  (** the engine's register array *)
  vals : Value.t array;  (** the engine's payload array *)
  role : int array;
      (** per node, its role ({!Instance.role}): 0 a function stage or
          lazy multiplexor (a lazy join), 1 a source, 2 a sink, 3 an EB,
          4 an EB0, 5 a fork, 6 an early multiplexor, 7 a shared module,
          8 a variable-latency unit *)
  rb : int array;  (** per node, its first slot in [regs] *)
  vb : int array;  (** per node, its first slot in [vals] *)
  sel : int array;
      (** per node, its [Sel] channel (a mux's select, a shared module's
          hint), -1 when it has none *)
  pi : int array;
  po : int array;
  pe : int array;
      (** node [i]'s inputs are [port.(pi.(i))] to [port.(po.(i) - 1)] and
          its outputs [port.(po.(i))] to [port.(pe.(i) - 1)], in port
          order *)
  port : int array;
      (** every node's ports, node by node: its select (if it has one,
          at [pi.(i) - 1], so a lazy multiplexor's join list
          [sel :: ins] is contiguous), its inputs, its outputs *)
  src : int array;
      (** the sources, rows of 5: node id, output, register base, spec
          (0 [Stream], 1 [Counter], 2 [Random_rate], 3 [Nondet]) and its
          parameter (a stream's or a choice list's length, a rate) *)
  snk : int array;
      (** the sinks, rows of 4: node id, register base, spec (0
          [Always_ready], 1 [Stall_pattern], 2 [Random_stall]) and its
          rate (0 but for [Random_stall]) *)
  patterns : bool array array;
      (** per [snk] row, its stall pattern ([[||]] without one) *)
  stall : int array;
      (** the stall-pattern sinks, the only sinks with a clock edge, rows
          of 3: node id, register base, pattern length *)
  eb : int array;  (** the EBs, rows of 5: node id, input, output, bases *)
  eb0 : int array;  (** the EB0s, as [eb] *)
  fork : int array;
      (** the forks, rows of [4 + k]: node id, input, register base, [k], the
          [k] outputs *)
  emux : int array;
      (** the early multiplexors, rows of [5 + k]: node id, select,
          register base, [k], the [k] inputs, the output *)
  shared : int array;
      (** the shared modules, rows of [4 + w]: node id, hint (-1 without
          one), register base, [w], the [w] outputs *)
  scheds : Elastic_sched.Scheduler.t array;  (** [shared]'s schedulers, in row order *)
  varlat : int array;  (** the variable-latency units, as [eb] *)
  vfns : Func.t array;  (** per [varlat] row, its fast, slow and error functions *)
  mutable last : int;  (** the id of the node whose row a loop is on *)
}

(** [create insts ~regs ~vals] compiles the tables of the instances
    [insts] ({!Instance.layout}, dense node order), counted and then
    filled. *)
val create : Instance.t array -> regs:int array -> vals:Value.t array -> t

(** Start of a cycle: each source drops the items its pending
    anti-tokens kill and decides whether to offer, each sink whether to
    stall, and each shared module takes a forced prediction.
    [choices id] overrides the pseudo-random or scripted behaviour of
    the node with id [id], as {!Instance.choice} describes. *)
val begin_cycle :
  t -> choices:(Netlist.node_id -> Instance.choice option) ->
  unit

(** Clock edge.  [codes] holds the elapsed cycle's raw (unresolved)
    control codes by dense channel index; [has_data c] says whether
    channel [c] carries a payload and [payload c] reads it, asked for
    only when a token moves on [c].  Each node that keeps state updates
    its registers and payload slots; a shared module's scheduler sees
    the raw drive of its predicted way's output (a stop asserted on a
    cancelling channel included).
    @raise Assert_failure or [Invalid_argument] where a node's invariant
    breaks (only an injected fault breaks one), with [last] naming the
    node. *)
val clock :
  t -> codes:int array -> has_data:(int -> bool) ->
  payload:(int -> Value.t) -> unit
