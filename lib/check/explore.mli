open Elastic_netlist

(** Explicit-state verification of elastic controllers (§4.2).

    The paper verifies its controllers with NuSMV; this module performs
    the equivalent finite-state check directly on the simulation
    semantics.  Starting from the initial register state it enumerates
    every resolution of the nondeterministic environment — [Random_rate]
    sources (offer or stay idle), [Random_stall] sinks (accept or stop)
    and [External] schedulers (any prediction) — and explores the
    reachable state graph, checking:

    - the {b SELF protocol} on every channel, by the monitor's rule and
      property names ({!Elastic_kernel.Protocol.retry}): the kill/stop
      invariant on each transition, and Retry+/Retry- across each pair
      of consecutive transitions (§4.2 exempts shared-module outputs
      from Retry+);
    - {b deadlock}: a state with tokens in flight whose every successor is
      itself with no transfer;
    - {b liveness / leads-to}: for every channel, a state in which the
      channel persistently offers a token that can never transfer or be
      killed under any future resolution is a starvation violation —
      property (1) of §4.1.1 when the channel feeds a shared module.

    States are the unmonitored engine's, identified by
    {!Elastic_sim.Engine.same_future} (the fault cut-off's relation),
    bucketed by {!Elastic_sim.Engine.fingerprint}; an [External]
    scheduler's leftover prediction is reset first, as every step
    forces a new one.  A transition keeps the cycle's control codes and
    the payloads offered on persistent channels, which Retry+ compares. *)

type outcome = {
  explored : int;  (** Distinct states visited. *)
  transitions : int;
  complete : bool;  (** False when [max_states] was hit. *)
  protocol_violations : string list;
  deadlock_states : string list;
      (** Each by BFS index and depth: ["state 12 (depth 5)"]. *)
  starving_channels : string list;
      (** Channels with a reachable state from which they can never make
          progress while offering a token. *)
  counterexample : string list;
      (** For the first protocol violation or deadlock: the channel
          activity along a path from the initial state, rendered like
          Table 1 (one row per channel, one column per cycle). *)
  static_hints : string list;
      (** Rendered error/warning diagnostics from {!Elastic_lint.Lint}
          on the explored netlist — when exploration finds a dynamic
          failure, the static rule naming its cause (e.g. E103 for a
          token-free cycle deadlocking) is usually here.  Does not affect
          {!clean}. *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** True when the outcome shows a fully explored, violation-free system. *)
val clean : outcome -> bool

(** [explore net] runs the exhaustive check.
    @param max_states exploration cap (default 20000); hitting it marks
    the outcome incomplete.
    @param mode engine evaluation strategy (default {!Engine.default_mode});
    the outcome is identical either way — exposed for differential tests.
    @raise Invalid_argument when a single step has more than 64
    nondeterministic choice combinations. *)
val explore :
  ?max_states:int -> ?mode:Elastic_sim.Engine.eval_mode -> Netlist.t ->
  outcome
