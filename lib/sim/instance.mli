open Elastic_kernel
open Elastic_sched
open Elastic_netlist

(** Runtime state of the netlist nodes.

    Each node's combinational equations are evaluated by a backend
    ([Arena]'s hand-written halves, or [Reference]'s compiled
    {!Control.program}); then the node is clocked once with the raw
    control codes of the cycle ([Nodes.clock]).  This module holds what
    both backends share: the nodes' register layout, their ports and
    static parameters, from which [Nodes] compiles the flat tables every
    per-node phase of a step reads, and the fault {!override}.

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

(** A fault overlay for one channel during one cycle, which both
    backends apply.  [force_*] pin V+, S+ or V- (no fault forces S-): a
    forced field reads its forced level whatever its node computes.
    [map_data] transforms the payload its node writes.  A replayed
    token's payload is not part of it: the engine hands the payload it
    kept to the backend's [substitute] when it installs the override. *)
type override = {
  force_v_plus : bool option;
  force_s_plus : bool option;
  force_v_minus : bool option;
  map_data : (Value.t -> Value.t) option;
}

val no_override : override

(** The forced fields of an override packed as [(mask lsl 4) lor
    level], in {!Signal.code} layout: a forced field has its mask bit
    set and its level bit high when it is forced high. *)
val force_code : override -> int

(** {1 Register state}

    An engine keeps the registers of all its nodes in one [int array]
    and their stored payloads in one [Value.t array], laid out at
    [Engine.create] ({!layout}): each node owns consecutive int slots
    from {!reg_base} and payload slots from {!val_base}, and the
    engine's own slots (its protocol monitors' and leads-to watchdog's)
    follow every node's.  Of a node's slots, only {!layout} and the
    begin-cycle and clock-edge loops of [Nodes] write them (and the
    engine's restore, which blits whole arrays); the evaluators read
    them.  The slots,
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

(** A source's slots, relative to its base: the offering flag, the
    stream index, the pending anti-token count, the retry flag and the
    random-generator state. *)
val src_offering : int

val src_idx : int

val src_kill : int

val src_retry : int

val src_rng : int

(** A sink's slots, relative to its base: the stalling flag, the
    stall-pattern position and the random-generator state. *)
val snk_stalling : int

val snk_cyc : int

val snk_rng : int

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
  | Shared of { sched : Scheduler.t  (** a view of the node's slots *) }
  | Varlat of { fast : Func.t; slow : Func.t; err : Func.t }

type t

(** [layout nodes ~ports] builds the runtime instances of [nodes], in
    order, with the register and payload arrays that hold all their
    state, initialized.  [ports.(i)] gives [nodes.(i)]'s dense channel
    indices [(ins, sel, outs)], which must follow port numbering
    ([ins.(i)] is port [In i], etc.).  The Reference reads them in
    place; [Nodes.create] copies them into the flat tables the arena's
    halves, the begin-cycle and the clock edge read.  No equation table is built
    here: only a [Reference] engine compiles one.  Buffers must fit
    their capacity; [Engine.create] rejects an
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

(** [fold_future t f acc] folds [f] over the int slots, as indices
    into the engine's register array, whose values decide the node's
    future: all of them, but for a source's offering flag and a sink's
    stalling flag, which the begin-cycle recomputes before any reader,
    and a scheduler's statistics ({!Scheduler.future}).  With the
    payload slots, they are what [Engine.same_future] compares. *)
val fold_future : t -> ('a -> int -> 'a) -> 'a -> 'a

(** [source_value t] is the value a source offers while its offering
    flag is set, read without building an option.
    @raise Invalid_argument if [t] is not a source. *)
val source_value : t -> Value.t

(** The alternatives of the nondeterministic decision a node of this kind
    takes each cycle; [[]] when it takes none. *)
val choices : Netlist.kind -> choice list

(** [bad_select s] raises [Invalid_argument] naming the out-of-range
    multiplexor select [s], as {!Func.select} does. *)
val bad_select : int -> 'a

(** {1 Introspection} *)

(** Signed token count of a buffer node ([tokens >= 0], anti-tokens
    [< 0]); [None] for non-buffer nodes. *)
val buffer_occupancy : t -> int option
