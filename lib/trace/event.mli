open Elastic_kernel
open Elastic_netlist

(** Typed cycle-accurate trace events.

    Every event is stamped with the cycle it happened on and the channel
    or node it happened at.  The event vocabulary covers exactly the
    phenomena the paper reasons about: token transfers and retries on
    SELF channels, anti-token traffic and cancellations (§2, §4.1),
    buffer occupancy changes, speculation-scheduler predictions, squashes
    and replays (§4.1.1), injected faults (lib/fault) and protocol
    monitor violations (§3.1).

    Events are produced by {!Tracer} and consumed by the exporters
    ({!Vcd}, {!Jsonl}), the analyses ({!Timeline}, and {!counts} below)
    and the shell's [trace dump]. *)

type subject =
  | Chan of Netlist.channel_id
  | Node of Netlist.node_id

type kind =
  | Transfer of Value.t option
      (** A token was delivered into the receiver ([T+]); carries the
          payload when one was driven. *)
  | Stall  (** A valid token was offered and stalled ([V+ /\ S+]). *)
  | Anti  (** An anti-token was present on the channel ([V-]). *)
  | Cancel  (** A token/anti-token pair annihilated on the channel. *)
  | Occupancy of { before : int; after : int }
      (** A buffer node's signed occupancy changed at the clock edge. *)
  | Predict of { way : int }
      (** A speculation scheduler changed its prediction to [way]
          (taking effect the following cycle). *)
  | Serve of { way : int }
      (** A shared module served (committed) a token on [way]. *)
  | Mispredict of { way : int }
      (** A squash: the prediction [way] was revealed wrong by a retry
          on the predicted output. *)
  | Replay of { penalty : int }
      (** The first serve after a squash, [penalty] cycles later — the
          squash penalty of the paper's replay recipe. *)
  | Inject
      (** The engine's fault schedule overrode this channel's wire this
          cycle ({!Elastic_sim.Engine.injected}). *)
  | Violation of { property : string }
      (** A SELF protocol monitor flagged this channel. *)

type t = {
  ev_cycle : int;
  ev_subject : subject;
  ev_kind : kind;
}

(** Short stable label of the event kind ("transfer", "stall", ...),
    used by the JSONL schema. *)
val kind_label : kind -> string

(** Render with node/channel names resolved against the netlist. *)
val pp : Netlist.t -> Format.formatter -> t -> unit

(** {1 Counter reconstruction}

    Folding a complete event stream must reproduce the engine's
    statistics exactly ([Stats.collect]); the property is locked by a
    qcheck test. *)

type counts

val counts : t list -> counts

(** Tokens delivered on a channel ([Transfer] events). *)
val delivered : counts -> Netlist.channel_id -> int

(** Token/anti-token annihilations on a channel ([Cancel] events). *)
val killed : counts -> Netlist.channel_id -> int

(** Stalled-token cycles of a channel ([Stall] events). *)
val retries : counts -> Netlist.channel_id -> int

(** Anti-token cycles of a channel ([Anti] events). *)
val antis : counts -> Netlist.channel_id -> int

(** Serves of a shared module's scheduler ([Serve] events). *)
val serves : counts -> Netlist.node_id -> int

(** Squashes of a shared module's scheduler ([Mispredict] events). *)
val mispredictions : counts -> Netlist.node_id -> int
