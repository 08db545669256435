open Elastic_kernel

(** The Reference backend's store: per-cycle channel wire values with
    three-valued (unknown) logic.  A [Reference] engine creates one, and
    an arena engine only to render the error of a cycle it cannot
    settle; the arena backend keeps its own store of control codes and
    uses only {!override} from this module.

    During the combinational phase of a cycle each control bit of each
    channel starts unknown and is written at most once by the driving
    node.  The fixed-point engine repeatedly evaluates nodes until no new
    wire becomes known; writing two different values to one wire is a
    simulator bug and raises {!Conflict}.

    Wires additionally support per-cycle {e overrides} — the
    fault-injection hook.  An override pins control bits to a forced
    level and/or corrupts the data payload; the driving node's write is
    silently reconciled against the forced value so the fixed point stays
    monotone and conflict-free while the rest of the circuit observes the
    perturbed wire. *)

(** A fault overlay for one channel wire during one cycle.  [force_*]
    pin V+, S+ or V- (no fault forces S-); [map_data] transforms the payload the driver
    writes; [subst_data] supplies a payload when the wire is forced
    valid but carries no driven data (token forgery / duplication). *)
type override = {
  force_v_plus : bool option;
  force_s_plus : bool option;
  force_v_minus : bool option;
  map_data : (Value.t -> Value.t) option;
  subst_data : Value.t option;
}

val no_override : override

(** Raised on conflicting writes to one wire — a simulator bug (or an
    injected fault that broke write-once discipline).  The engine wraps
    this with channel provenance. *)
exception Conflict of { wire : int; field : string }

type wire

type t

(** [create n] makes a store for [n] channels (dense indices). *)
val create : int -> t

val wire : t -> int -> wire

(** Forget all values (start of a new cycle).  Overrides are kept. *)
val reset : t -> unit

(** [set_override t i ov] installs [ov] on wire [i] and immediately seeds
    any forced control bits, so call it after {!reset} and before node
    evaluation. *)
val set_override : t -> int -> override -> unit

(** Remove all installed overrides. *)
val clear_overrides : t -> unit

(** Has any wire been written since the flag was last cleared? *)
val progress : t -> bool

val clear_progress : t -> unit

(** Indices of the wires written since {!clear_progress} (most recent
    first, possibly with duplicates).  The reference fixpoint uses it to
    name the still-changing channels when it fails to converge. *)
val written : t -> int list

(** Number of control bits still unknown (data excluded). *)
val unknown_count : t -> int

(** {1 Reading} *)

val v_plus : wire -> bool option

val s_plus : wire -> bool option

val v_minus : wire -> bool option

val s_minus : wire -> bool option

(** Data is meaningful only when [v_plus = Some true]. *)
val data : wire -> Value.t option

(** [has_data w] is [data w <> None], and [payload w] the value [data w]
    holds, read without building an option: the engine's clock edge,
    sinks and monitors read payloads this way.
    @raise Invalid_argument from [payload] when [has_data] is false. *)
val has_data : wire -> bool

val payload : wire -> Value.t

(** {1 Writing}  @raise Conflict on conflicting writes. *)

val set_v_plus : t -> wire -> bool -> unit

val set_s_plus : t -> wire -> bool -> unit

val set_v_minus : t -> wire -> bool -> unit

val set_s_minus : t -> wire -> bool -> unit

val set_data : t -> wire -> Value.t -> unit

(** Raw control code of a wire after the fixed point ({!Signal.code}
    layout); unknown bits read as low (they can only remain unknown if
    the engine already reported an error). *)
val code : wire -> int
