(* Bring the SELF kernel modules (Value, Signal, ...) into scope. *)
open Elastic_kernel
open Elastic_sched

(** Structural representation of an elastic system.

    An elastic system is a collection of blocks and buffers connected by
    elastic channels (§3).  The netlist is a purely functional graph so
    that transformations produce new netlists cheaply and the exploration
    shell can keep undo/redo histories. *)

type node_id = int

type channel_id = int

(** Connection points of a node.  [Sel] is the select input of a
    multiplexor; data inputs and outputs are numbered from 0. *)
type port = Sel | In of int | Out of int

val pp_port : Format.formatter -> port -> unit

val port_equal : port -> port -> bool

(** Elastic buffer implementations available to the designer.

    - [Eb]: the standard latch-based EB of Fig. 2(a), forward latency 1,
      backward latency 1, capacity 2.
    - [Eb0]: the flip-flop EB of Fig. 5, forward latency 1, backward
      latency 0, capacity 1 — stop and kill traverse it combinationally,
      speeding up anti-token propagation (§4.3). *)
type buffer_kind = Eb | Eb0

val buffer_kind_name : buffer_kind -> string

(** Token capacity [C = Lf + Lb]: 2 for [Eb], 1 for [Eb0]. *)
val buffer_capacity : buffer_kind -> int

(** Token sources (environment inputs). *)
type source_spec =
  | Stream of Value.t list  (** Finite scripted stream, then silence. *)
  | Counter of { start : int; step : int }  (** Infinite integer stream. *)
  | Random_rate of { pct : int; seed : int }
      (** Counter data offered with probability [pct]/100 each cycle. *)
  | Nondet of Value.t list
      (** Offers nondeterministically (externally controlled during model
          checking, 50/50 otherwise), cycling over a finite value list —
          keeps the state space finite for {!section-exploration}
          exhaustive verification. *)

(** Token sinks (environment outputs). *)
type sink_spec =
  | Always_ready
  | Stall_pattern of bool array
      (** Cyclic pattern; [true] = assert stop that cycle. *)
  | Random_stall of { pct : int; seed : int }

type kind =
  | Source of source_spec
  | Sink of sink_spec
  | Buffer of { buffer : buffer_kind; init : Value.t list }
      (** [init] are the tokens initially stored (oldest first); an empty
          list is a bubble. *)
  | Func of Func.t
      (** Lazy-join block: waits for all [arity] inputs, produces one
          output. *)
  | Fork of int  (** Eager fork to [n] outputs. *)
  | Mux of { ways : int; early : bool }
      (** Multiplexor with a select input and [ways] data inputs.  When
          [early] is set it performs early evaluation and emits
          anti-tokens into the non-selected channels (§2, §4.1). *)
  | Shared of {
      ways : int;
      f : Func.t;
      sched : Scheduler.spec;
      hinted : bool;
    }
      (** Shared elastic module of Fig. 4: [ways] input/output channel
          pairs around a single copy of [f], arbitrated by a speculation
          scheduler.  When [hinted], the module has an extra [Sel] input
          carrying one hint token per operation served on channel 0 (the
          speculative home); the hint value is delivered to the scheduler
          — the wiring §5 uses to let the error detector drive
          speculation. *)
  | Varlat of { fast : Func.t; slow : Func.t; err : Func.t }
      (** Stalling variable-latency unit of Fig. 6(a): a registered stage
          that computes [fast v] in one cycle when [err v = Int 0] and
          otherwise stalls the sender one extra cycle and emits [slow v].
          The error detector feeds the stage controller, so it sits on the
          stage's critical path (which is what speculation removes). *)

val kind_name : kind -> string

type node = { id : node_id; name : string; kind : kind }

type endpoint = { ep_node : node_id; ep_port : port }

type channel = {
  ch_id : channel_id;
  ch_name : string;
  src : endpoint;  (** Must be an output-capable port. *)
  dst : endpoint;  (** Must be an input-capable port. *)
  width : int;  (** Datapath width in bits (for the area model). *)
}

type t

val empty : t

(** {1 Construction} *)

(** [add_node t kind] returns the extended netlist and the fresh node id.
    A default name is derived from the kind when [name] is omitted. *)
val add_node : ?name:string -> t -> kind -> t * node_id

(** [connect t (n1, p1) (n2, p2)] adds a channel from output port [p1] of
    [n1] to input port [p2] of [n2].
    @raise Invalid_argument if a port is already connected, does not exist
    on the node, or has the wrong direction. *)
val connect :
  ?name:string -> ?width:int -> t -> node_id * port -> node_id * port ->
  t * channel_id

(** [unsafe_connect] adds a channel {e without any} direction, arity or
    occupancy checks, and accepts endpoints naming nodes that do not
    exist.  It exists for the lint test harness (the mutation generator
    must be able to build the malformed netlists that [connect] refuses);
    production construction code must use {!connect}. *)
val unsafe_connect :
  ?name:string -> ?width:int -> t -> node_id * port -> node_id * port ->
  t * channel_id

(** {1 Modification (used by transformations)} *)

val remove_node : t -> node_id -> t
(** Removes the node; its channels must have been removed first.
    @raise Invalid_argument otherwise. *)

val remove_channel : t -> channel_id -> t

val replace_kind : t -> node_id -> kind -> t

(** [set_dst t c ep] / [set_src t c ep] re-points one end of channel [c].
    @raise Invalid_argument if the new port is occupied or invalid. *)
val set_dst : t -> channel_id -> node_id * port -> t

val set_src : t -> channel_id -> node_id * port -> t

(** {1 Queries} *)

val node : t -> node_id -> node

val channel : t -> channel_id -> channel

val nodes : t -> node list

val channels : t -> channel list

val node_count : t -> int

val channel_count : t -> int

val find_node : t -> string -> node option

(** Channels whose destination is the given node. *)
val incoming : t -> node_id -> channel list

(** Channels whose source is the given node. *)
val outgoing : t -> node_id -> channel list

(** The channel attached to a specific port of a node, if any. *)
val channel_at : t -> node_id -> port -> channel option

(** The way of a node a port belongs to: a shared module's way [j] owns
    [In j] and [Out j], and way 0 also reads the hint [Sel]; any other
    node has the one way 0.  An input feeds the outputs of its way only:
    the static analyses read a shared module way by way, as the
    controller's equations do. *)
val way : kind -> port -> int

(** [feeds t n p]: the output channels of node [n] that its input port
    [p] feeds, those of [p]'s way. *)
val feeds : t -> node -> port -> channel list

(** [fed_by t n p]: the input channels of node [n] that feed its output
    port [p], those of [p]'s way. *)
val fed_by : t -> node -> port -> channel list

(** Does Retry+ (forward persistence) bind this channel?  False on a
    shared module's outputs: §4.2 lets the scheduler withdraw a stalled
    token to change its prediction. *)
val persistent : t -> channel -> bool

(** Input ports a node of this kind must have connected. *)
val required_inputs : kind -> port list

(** Output ports a node of this kind must have connected. *)
val required_outputs : kind -> port list

(** {1 Validation} *)

(** Structural well-formedness as typed diagnostics: every required port
    connected exactly once (E001/E002), no dangling channel endpoints
    (E003), positive channel widths (E004).  The lint engine
    ({!module:Elastic_lint}) registers these as its structural rules and
    layers the graph-level SELF and speculation rules on top. *)
val diagnostics : t -> Diagnostic.t list

(** [validate t] checks that every required port of every node is
    connected exactly once and that endpoint directions are consistent.
    Returns the list of problems, empty when the netlist is well formed.
    (The historical string API: exactly the messages of
    {!diagnostics}.) *)
val validate : t -> string list

(** [validate_exn t] raises [Invalid_argument] with the concatenated
    problems if the netlist is not well formed. *)
val validate_exn : t -> unit

val pp : Format.formatter -> t -> unit
