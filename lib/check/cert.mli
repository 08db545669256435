open Elastic_sched
open Elastic_netlist

(** Proof certificates for flow-preserving netlist transformations.

    Every entry point of [Elastic_core.Transform] is
    certificate-producing: when handed a {!builder} it appends one typed
    {!step} per successful application, recording {e which} lemma of the
    paper justifies the rewrite (bubble insertion, Shannon decomposition,
    early evaluation, sharing, retiming, buffer conversion), the side
    conditions that held when it fired, and the netlist delta (nodes
    added and removed plus full before/after snapshots — snapshots are
    cheap because netlists are persistent maps).

    A finished certificate is a checkable derivation
    [source -> step 1 -> ... -> step n -> derived]: {!Flow.verify}
    re-validates every step's side conditions purely structurally and
    replays the rewrite with raw netlist operations, independently of the
    transformation code that produced it.  Rejected applications
    (diagnostics E301-E308) never reach the builder, so an exception
    leaves the chain exactly as it was.

    The module lives in [elastic_check], {e below} [elastic_core], so the
    verifier cannot accidentally call the transformations it is supposed
    to check. *)

(** One rewrite, identified by the parameters the transformation was
    called with (node and channel ids refer to the [before] netlist). *)
type step_kind =
  | Bubble of { channel : Netlist.channel_id }
      (** Empty-EB insertion on a channel (§2). *)
  | Fifo of { channel : Netlist.channel_id; depth : int }
      (** A chain of [depth] empty EBs (§3). *)
  | Remove_buffer of { node : Netlist.node_id }
      (** Splicing an {e empty} buffer out. *)
  | Convert of { node : Netlist.node_id; buffer : Netlist.buffer_kind }
      (** Swapping the buffer implementation (Fig. 5). *)
  | Retime_fwd of { through : Netlist.node_id }
      (** Moving one token from every input buffer across a function
          block, recomputing the stored value. *)
  | Retime_bwd of { through : Netlist.node_id }
      (** Moving an empty output buffer onto every input. *)
  | Shannon of { mux : Netlist.node_id }
      (** Shannon decomposition / multiplexor retiming (§2). *)
  | Early_eval of { mux : Netlist.node_id }
      (** Switching a multiplexor to early (anti-token) evaluation. *)
  | Share of { blocks : Netlist.node_id list; sched : Scheduler.spec }
      (** Merging identical unary blocks into a shared module (Fig. 4). *)

(** Stable machine name of the step, e.g. ["shannon"]. *)
val kind_name : step_kind -> string

(** The flow-equivalence lemma the step instantiates, e.g.
    ["shannon-decomposition"]; the rule-to-lemma table lives in
    EXPERIMENTS.md. *)
val lemma_of : step_kind -> string

type step = {
  kind : step_kind;
  lemma : string;  (** {!lemma_of} of [kind]. *)
  conditions : string list;
      (** The lemma's side conditions, rendered as the facts that held on
          [before] when the transformation fired (re-validated from
          scratch by {!Flow.verify}; recorded here for reports). *)
  added_nodes : Netlist.node_id list;
  removed_nodes : Netlist.node_id list;
  before : Netlist.t;
  after : Netlist.t;
}

(** A derivation: steps in application order.  The empty certificate
    claims [source = derived]. *)
type t = { steps : step list }

val length : t -> int

(** Mutable accumulator threaded through transformation calls via their
    [?cert] argument. *)
type builder

val create : unit -> builder

(** [record b ~before ~after kind] appends one step; called by the
    transformations {e after} the rewrite succeeded. *)
val record : builder -> before:Netlist.t -> after:Netlist.t ->
  step_kind -> unit

(** Steps recorded so far (application order); [create] starts at 0. *)
val recorded : builder -> int

(** Freeze the builder into a checkable certificate.  The builder stays
    usable: later steps extend later certificates. *)
val certificate : builder -> t

val pp_step : Format.formatter -> step -> unit
