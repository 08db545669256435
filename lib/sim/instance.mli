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

    The clocked state of each node kind, exposed so the flat-arena
    evaluator ({!Arena}) can code the controllers' equations over packed
    integer wire codes while sharing the node registers with this
    module.  By convention only {!begin_cycle}, {!clock} and {!restore}
    mutate these records; evaluators treat them as read-only. *)

type source_state = {
  sspec : Netlist.source_spec;
  svals : Value.t array;  (** [Stream] payloads, for O(1) peeking. *)
  srng : Rng.t;
  mutable idx : int;
  mutable pending_kill : int;
  mutable retry : bool;
  mutable offering : bool;
}

type sink_state = {
  kspec : Netlist.sink_spec;
  krng : Rng.t;
  mutable cyc : int;
  mutable stalling : bool;
}

type eb_state = { mutable n : int; mutable queue : Value.t list }

type eb0_state = { mutable full : bool; mutable stored : Value.t }

type fork_state = { done_ : bool array; pend : int array }

type emux_state = { q : int array }

type varlat_state = { mutable pipe : (Value.t * int) option }

type state =
  | S_stateless
  | S_source of source_state
  | S_sink of sink_state
  | S_eb of eb_state
  | S_eb0 of eb0_state
  | S_fork of fork_state
  | S_emux of emux_state
  | S_shared of Scheduler.t
  | S_varlat of varlat_state

type t

(** [create node ~ins ~sel ~outs] builds the runtime instance over
    dense channel indices, which must follow port numbering ([ins.(i)]
    is port [In i], etc.).  These are the node's only copy of its
    ports: {!evaluator} resolves them through the Reference backend's
    {!Wires} store, the arena flattens them into its own index pool,
    and {!clock} reads the elapsed cycle's codes through them.  No
    equation table is built here: an arena engine never needs one.
    Buffers must fit their capacity; [Engine.create] rejects an
    over-capacity buffer (E101) before it creates any instance. *)
val create :
  Netlist.node -> ins:int array -> sel:int option -> outs:int array -> t

val node : t -> Netlist.node

(** Dense channel index of each [In] port, in port order. *)
val ins : t -> int array

(** Dense channel index of the [Sel] port, if the node has one. *)
val sel : t -> int option

(** Dense channel index of each [Out] port, in port order. *)
val outs : t -> int array

(** The node's register state (shared with the arena evaluator). *)
val state : t -> state

(** Next value a source would offer (its stream head), if any. *)
val source_peek : source_state -> Value.t option

(** The alternatives of the nondeterministic decision a node of this kind
    takes each cycle; [[]] when it takes none. *)
val choices : Netlist.kind -> choice list

(** The shared-module scheduler, if this node has one. *)
val scheduler : t -> Scheduler.t option

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

(** {1 State snapshots (for the model checker)} *)

(** Marshalable register state of a node. *)
type snap

val snapshot : t -> snap

val restore : t -> snap -> unit

(** Do the live registers of [t] and the snapshot give the same future
    on the same inputs?  Every register counts, random-generator states
    included; of a shared module's scheduler only the prediction and
    {!Scheduler.key} count (see {!Scheduler.same_future}). *)
val same_future : t -> snap -> bool

(** Hash of the registers {!same_future} compares. *)
val fingerprint : t -> int

(** {1 Introspection} *)

(** Signed token count of a buffer node ([tokens >= 0], anti-tokens
    [< 0]); [None] for non-buffer nodes. *)
val buffer_occupancy : t -> int option
