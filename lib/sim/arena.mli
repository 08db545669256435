open Elastic_kernel

(** Flat-arena evaluator for the combinational phase of a cycle.

    Channel state lives in preallocated flat arrays — four 2-bit Kleene
    codes packed per channel into an [int] control word, and one
    [Value.t] payload slot per channel with a presence flag, holding
    the value its producer wrote — and the cycle settles in the static
    half-node sweep of {!Schedule}, walked by a tight loop.

    This is the engine's default backend ([Engine.Arena]).  The sweep
    fixes its eval counts and settle passes, so they, like its traces
    and metrics, are deterministic and locked by committed goldens; it
    reaches the same fixed point as the blind reference fixpoint over
    {!Wires}.  An arena engine builds no
    {!Wires} store: it shares only {!Wires.override} and
    {!Wires.Conflict}.  [Engine] owns the mode dispatch, error
    rendering and everything outside the settle loop; node register
    state and each node's port indices stay in {!Instance} and are
    shared. *)

type t

(** Raised when a cyclic region exhausts its sweep budget
    ([5 * nchan + 16] sweeps); the engine converts it into its E110
    non-convergence error. *)
exception Did_not_converge

(** [create ~schedule ~profile ~nchan ~regs ~vals insts] compiles the
    arena from the engine's instances, one per dense node index.  The
    evaluators read each node's dense input/sel/output channel indices
    ({!Instance.ins}, {!Instance.sel}, {!Instance.outs}) from its
    instance, and the engine's register and payload arrays [regs] and
    [vals], in place; the only port list built here is a lazy
    multiplexor's argument list [sel :: ins].  Each evaluation of node
    [i] bumps [profile]'s per-node counter ({!Profile.per_node_array})
    in place, as the reference fixpoint does. *)
val create :
  schedule:Schedule.t ->
  profile:Profile.t ->
  nchan:int ->
  regs:int array ->
  vals:Value.t array ->
  Instance.t array ->
  t

(** Clear all wire codes and payload flags for a new cycle (overrides
    persist, mirroring [Wires.reset]). *)
val reset : t -> unit

(** Install a fault-injection override on a dense channel index, seeding
    forced bits (mirrors [Wires.set_override]). *)
val set_override : t -> int -> Wires.override -> unit

val clear_overrides : t -> unit

(** Run the combinational phase to its fixed point: evaluate each entry
    of the sweep in order, sweeping a cyclic region's members until a
    sweep writes nothing.  Returns the cycle's pass count: 1 with no
    cyclic region, the most sweeps any cyclic region took otherwise, 0
    when there are no nodes.
    @raise Wires.Conflict on a contradictory wire write.
    @raise Did_not_converge when a region's budget is exhausted. *)
val settle : t -> int

(** Control bits still unknown after [settle] (combinational cycle). *)
val unknown_count : t -> int

(** Does the channel have an undetermined control field? *)
val undetermined : t -> int -> bool

(** Channels written during the last sweep of a cyclic region,
    most-recent-first — the non-convergence provenance set (error paths
    only). *)
val written_channels : t -> int list

(** Dense index of the node whose evaluation raised (error paths). *)
val last_eval : t -> int

(** [fill_codes t codes] writes every channel's raw control code
    ({!Signal.code} layout; a bit still unknown reads as low) into
    [codes], indexed by dense channel index.  Allocates nothing. *)
val fill_codes : t -> int array -> unit

(** [has_data t c] says whether dense channel [c] carries a payload
    after settle, mirroring {!Wires.has_data} (including the
    substitute-payload fallback); [payload t c] reads a payload that
    [has_data]: the value the producing node wrote, not a copy.  Neither
    allocates. *)
val has_data : t -> int -> bool

val payload : t -> int -> Value.t
