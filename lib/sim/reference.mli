open Elastic_kernel

(** The Reference backend ([Engine.Reference]): the independent oracle
    the default arena backend is held to in lockstep.

    It evaluates each node's {!Elastic_netlist.Control.program}, the
    equations the BLIF, SMV and Verilog exports print, compiled once per
    engine into closures over the node's channels, and re-evaluates every node in every
    pass until a pass writes nothing: the fixed point of the monotone
    equations over three-valued (Kleene) channel fields.  Its store is
    its own: per channel, the known and value bits of V+, S+, V- and S-
    in one int, and one payload slot with a presence flag.  During a
    cycle each field starts unknown and is written at most once, by its
    driving node; a second, different write raises {!Conflict}.  With
    the arena it shares only the nodes' instances ({!Instance}: ports
    and registers) and the {!Instance.override} record.

    The engine renders each exception below as a typed
    [Engine.Simulation_error] with the cycle and the channel's
    provenance. *)

(** Two different values written to one field of dense channel [chan]
    in one cycle ([field] is ["V+"], ["S+"], ["V-"], ["S-"] or
    ["data"]): a simulator bug, or a fault that broke write-once
    discipline. *)
exception Conflict of { chan : int; field : string }

(** {!settle} ran its pass budget and the last pass still wrote
    [changing] (dense channels, ascending); [passes] counts the passes
    run. *)
exception Diverged of { passes : int; changing : int list }

(** {!export} found these dense channels (ascending) with a control
    field still unknown: a combinational cycle, or a field a fault left
    undetermined. *)
exception Undetermined of int list

type t

(** [create ~profile ~max_passes ~regs ~vals ~channels insts] compiles
    every instance's table over a store of [channels] dense channels.
    The evaluators read the nodes' registers and stored payloads from
    the engine's arrays [regs] and [vals] as they stand at each call,
    and each evaluation of node [i] bumps [profile]'s counter
    ({!Profile.note_eval}). *)
val create :
  profile:Profile.t ->
  max_passes:int ->
  regs:int array ->
  vals:Value.t array ->
  channels:int ->
  Instance.t array ->
  t

(** Forget every field and payload: a new cycle.  Overrides are kept,
    but seeded only by {!set_override}, so install a cycle's overrides
    after the reset. *)
val reset : t -> unit

(** [set_override t c ov] installs [ov] on dense channel [c] and seeds
    its forced fields at once, so that every reader sees them; the
    driving node's write of a forced field is reconciled to the forced level
    instead of raising {!Conflict}. *)
val set_override : t -> int -> Instance.override -> unit

(** [substitute t c v]: while channel [c]'s V+ is forced high and no
    node drives a payload on it, [v] is its payload (a replayed token).
    Call it after {!set_override}, which forgets it. *)
val substitute : t -> int -> Value.t -> unit

(** Remove every override and substitute. *)
val clear_overrides : t -> unit

(** Run every node's evaluator, in dense order, pass after pass, until a
    pass writes nothing; returns the passes run (0 with no nodes).
    @raise Conflict on a second, different write to a field.
    @raise Diverged after more than [max_passes] passes.
    Exceptions of a node's evaluation ([Invalid_argument] from an early
    multiplexor's out-of-range select, from a data function) escape
    as they are; {!last_eval} names the node. *)
val settle : t -> int

(** [export t codes] writes each channel's settled control code
    ({!Signal.code} layout) into [codes].
    @raise Undetermined if a field is still unknown. *)
val export : t -> int array -> unit

(** Dense index of the node the last pass was evaluating (error
    paths). *)
val last_eval : t -> int

(** [has_data t c] says whether dense channel [c] carries a payload
    this cycle, the substitute of a replayed token included; [payload t
    c] reads it.  Neither builds an option.
    @raise Invalid_argument from [payload] when [has_data] is false. *)
val has_data : t -> int -> bool

val payload : t -> int -> Value.t
