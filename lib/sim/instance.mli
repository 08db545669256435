open Elastic_kernel
open Elastic_sched
open Elastic_netlist

(** Runtime semantics of one netlist node.

    Each node is evaluated as a monotone function over partially-known
    channel wires (its {!evaluator}, the node's {!Control.table}, may be
    called repeatedly within a cycle until a fixed point is reached) and
    then clocked once with the raw control codes of the cycle, from which
    it derives the channel boundary events ({!clock}).

    The implemented controllers follow the paper:
    - standard EB: Fig. 2(a)/Fig. 3 with [Lf = 1], [Lb = 1], [C = 2];
    - zero-backward-latency EB: Fig. 5 with [Lf = 1], [Lb = 0], [C = 1];
    - early-evaluation multiplexor with anti-token emission (§2, §4.1);
    - shared module with speculation scheduler: Fig. 4(b);
    - eager fork, lazy join, environment sources/sinks. *)

(** External resolution of one nondeterministic decision (used by the
    model checker to replace random sources/sinks/schedulers). *)
type choice =
  | Offer of bool  (** Source: offer a token this cycle? *)
  | Stall of bool  (** Sink: assert stop this cycle? *)
  | Predict of int  (** Shared-module scheduler decision. *)

(** {1 Register state}

    An engine keeps the registers of all its nodes in one [int array]
    and their stored payloads in one [Value.t array], laid out at
    [Engine.create] ({!layout}): each node owns consecutive int slots
    from {!reg_base} and payload slots from {!val_base}, and the
    engine's own slots (its protocol monitors' and leads-to watchdog's)
    follow every node's.  Of a node's slots, only {!layout},
    {!begin_cycle} and {!clock} write them (and the engine's restore,
    which blits whole arrays); the evaluators read them.  The slots,
    relative to a node's base:
    - source: the offering flag, the stream index, the pending
      anti-token count, the retry flag and the random-generator state
      ({!Rng.start});
    - sink: the stalling flag, the stall-pattern position and the
      random-generator state;
    - EB: the signed occupancy [n] (tokens > 0, anti-tokens < 0); its
      [C = 2] payload slots hold the tokens oldest first;
    - EB0: 1 when full; one payload slot for the token;
    - [Fork k]: slot [j] is 1 once branch [j] has taken the current
      token, slot [k + j] counts the anti-tokens pending on branch [j];
    - early mux: slot [j] counts the kills not yet delivered to input
      [j];
    - shared module: its scheduler's slots ({!Scheduler.place});
    - varlat: the cycles before the held result shows, -1 when empty;
      one payload slot for the result.
    A payload slot holds [Value.Unit] while it stores no token, so two
    nodes whose slots are equal hold equal queues.  Flags are 0 or 1. *)

(** What a node does at the clock edge, with its static parameters. *)
type role =
  | Stateless  (** function stage or lazy multiplexor *)
  | Source of { spec : Netlist.source_spec; svals : Value.t array }
      (** [svals]: a [Stream]'s payloads, for O(1) peeking. *)
  | Sink of Netlist.sink_spec
  | Eb
  | Eb0
  | Fork
  | Emux
  | Shared of {
      sched : Scheduler.t;  (** a view of the node's slots *)
      obs : Scheduler.observation;  (** refilled in place at every edge *)
      served : int option array;  (** [Some g] for each way [g] *)
    }
  | Varlat of { fast : Func.t; slow : Func.t; err : Func.t }

type t

(** [layout nodes ~ports] builds the runtime instances of [nodes], in
    order, with the register and payload arrays that hold all their
    state, initialized.  [ports.(i)] gives [nodes.(i)]'s dense channel
    indices [(ins, sel, outs)], which must follow port numbering
    ([ins.(i)] is port [In i], etc.).  They are the node's only copy of
    its ports: {!evaluator} resolves them through the Reference
    backend's {!Wires} store, the arena flattens them into its own
    index pool, and {!clock} reads the elapsed cycle's codes through
    them.  No equation table is built here: an arena engine never needs
    one.  Buffers must fit their capacity; [Engine.create] rejects an
    over-capacity buffer (E101) before it lays out any instance.
    [spare] more int slots follow every node's, and [spare_vals] more
    payload slots, for the engine's own registers: its protocol
    monitors' and leads-to watchdog's. *)
val layout :
  Netlist.node array ->
  ports:(int array * int option * int array) array ->
  spare:int ->
  spare_vals:int ->
  int array * Value.t array * t array

val node : t -> Netlist.node

(** Dense channel index of each [In] port, in port order. *)
val ins : t -> int array

(** Dense channel index of the [Sel] port, if the node has one. *)
val sel : t -> int option

(** Dense channel index of each [Out] port, in port order. *)
val outs : t -> int array

val role : t -> role

(** The node's first slot in the engine's register array and in its
    payload array. *)
val reg_base : t -> int

val val_base : t -> int

(** The int slots, as indices into {!regs}, whose values decide the
    node's future: all of them, but for a source's offering flag and a
    sink's stalling flag, which {!begin_cycle} recomputes before any
    reader, and a scheduler's statistics ({!Scheduler.future}).  With
    the payload slots, they are what [Engine.same_future] compares. *)
val future : t -> int list

(** Next value a source would offer (its stream head), if any; [None]
    for other nodes. *)
val source_peek : t -> Value.t option

(** The alternatives of the nondeterministic decision a node of this kind
    takes each cycle; [[]] when it takes none. *)
val choices : Netlist.kind -> choice list

(** Start-of-cycle hook: environment nodes decide what to offer/accept.
    [choice] overrides the node's own (pseudo-random or scripted)
    behaviour. *)
val begin_cycle : t -> choice:choice option -> unit

(** [evaluator ws t] compiles [t]'s {!Control.table}, the equations the
    BLIF, SMV and Verilog exports print, over the Reference backend's
    store [ws]: once, with every net name resolved.  Each call of the
    result is one monotone evaluation pass that writes whatever wire
    values have become determined, payloads included.  Registers and
    environment inputs read [t]'s state as it stands at the call.
    @raise Invalid_argument (from the call) on an early multiplexor's
    out-of-range select, as {!bad_select}. *)
val evaluator : Wires.t -> t -> unit -> unit

(** [bad_select s] raises [Invalid_argument] naming the out-of-range
    multiplexor select [s], as {!Func.select} does. *)
val bad_select : int -> 'a

(** Clock edge.  [codes] holds the elapsed cycle's raw (unresolved)
    control codes ({!Signal.code} layout), indexed by dense channel
    index; [data c] is channel [c]'s payload, asked for only when a
    token moves on [c].  The node reads its own ports through {!ins},
    {!sel} and {!outs}, takes boundary events from
    {!Signal.events_of_code} and hands the raw drive (a stop asserted
    on a cancelling channel included) to a shared module's
    scheduler. *)
val clock : t -> codes:int array -> data:(int -> Value.t option) -> unit

(** {1 Introspection} *)

(** Signed token count of a buffer node ([tokens >= 0], anti-tokens
    [< 0]); [None] for non-buffer nodes. *)
val buffer_occupancy : t -> int option
