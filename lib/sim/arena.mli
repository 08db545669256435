open Elastic_kernel

(** Flat-arena evaluator for the combinational phase of a cycle.

    Channel state lives in preallocated flat arrays — each channel's
    raw control code ({!Signal.code} layout) in an [int], and one
    [Value.t] payload slot per channel with a presence flag, holding
    the value its producer wrote — and the cycle settles in one pass
    over the static sweep of the netlist's half graph ({!Halves}): a
    node's F half writes its outputs' V+, payload and S-, its B half
    its inputs' S+ and V-, and a shared module has one pair per way.
    The sweep is acyclic, so each half runs once, after everything it
    reads, and control is two-valued.

    This is the engine's default backend ([Engine.Arena]).  The sweep
    fixes its eval counts (one per half), so they, like its traces and
    metrics, are deterministic and locked by committed goldens; it
    reaches the fixed point of the {!Reference} backend, which keeps its
    own store: the two share only {!Instance.override}, the nodes'
    register state and their ports, and the begin-cycle and clock-edge
    loops of {!Nodes}.  [Engine] owns the mode dispatch, error rendering and
    everything outside the settle loop. *)

type t

(** Raised by {!settle} on the one field two-valued control cannot
    settle: an early multiplexor whose select is valid but carries no
    payload (only a forged-valid fault makes one), with an input it
    might select, or forced to fire.  The Reference leaves that field
    undetermined; the engine renders the Reference's error. *)
exception Undetermined

(** [create ~sweep ~profile ~codes nodes] compiles the arena over the
    engine's node tables ({!Nodes.t}).  [codes] is the engine's
    per-channel code array: the arena settles each channel's control
    code into it in place.  Each half of [sweep] gets an int tag, its
    node's role and its direction, on which {!settle} dispatches; the
    halves read each node's ports, select, register base and payload
    base from the tables' [int] arrays, and the registers and payloads
    from the engine's arrays, in place.  Each half evaluation of node
    [i] bumps [profile]'s per-node counter ({!Profile.per_node_array})
    in place. *)
val create :
  sweep:int array ->
  profile:Profile.t ->
  codes:int array ->
  Nodes.t ->
  t

(** Clear all control codes and payload flags for a new cycle
    (overrides persist). *)
val reset : t -> unit

(** Install a fault-injection override on a dense channel index: a
    forced field reads its forced level whatever its half computes. *)
val set_override : t -> int -> Instance.override -> unit

(** [substitute t c v]: while channel [c]'s V+ is forced high and no
    half drives a payload on it, [v] is its payload (a replayed token).
    Call it after {!set_override}, which forgets it. *)
val substitute : t -> int -> Value.t -> unit

(** Remove every override and substitute. *)
val clear_overrides : t -> unit

(** Run the combinational phase: evaluate each half of the sweep once,
    in order.  Returns the cycle's pass count: 1, or 0 when there are
    no nodes.
    @raise Undetermined as described there. *)
val settle : t -> int

(** Dense index of the node whose evaluation raised (error paths). *)
val last_eval : t -> int

(** [has_data t c] says whether dense channel [c] carries a payload
    after settle, as {!Reference.has_data} does (the substitute of a
    replayed token included); [payload t c] reads a payload that
    [has_data]: the value the producing node wrote, not a copy.  Neither
    allocates. *)
val has_data : t -> int -> bool

val payload : t -> int -> Value.t
