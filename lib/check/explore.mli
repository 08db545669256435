open Elastic_netlist

(** Explicit-state verification of elastic controllers (§4.2).

    The paper verifies its controllers with NuSMV; this module performs
    the equivalent finite-state check directly on the simulation
    semantics.  Starting from the initial register state it enumerates
    every resolution of the nondeterministic environment — [Random_rate]
    sources (offer or stay idle), [Random_stall] sinks (accept or stop)
    and [External] schedulers (any prediction) — and explores the
    reachable state graph, checking:

    - the {b SELF protocol} on every channel: the kill/stop invariant on
      each transition, and Retry+/Retry- persistence across each pair of
      consecutive transitions (shared-module outputs are exempt from
      forward persistence, as §4.2 allows);
    - {b deadlock}: a state with tokens in flight whose every successor is
      itself with no transfer;
    - {b liveness / leads-to}: for every channel, a state in which the
      channel persistently offers a token that can never transfer or be
      killed under any future resolution is a starvation violation —
      property (1) of §4.1.1 when the channel feeds a shared module. *)

type config = {
  max_states : int;  (** Exploration cap (default 20000). *)
  max_choice_combinations : int;
      (** Cap on per-step nondeterminism (default 64). *)
}

val default_config : config

type outcome = {
  explored : int;  (** Distinct states visited. *)
  transitions : int;
  complete : bool;  (** False when [max_states] was hit. *)
  protocol_violations : string list;
  deadlock_states : string list;  (** Pretty-printed state keys. *)
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
    @param mode engine evaluation strategy (default {!Engine.default_mode});
    the outcome is identical either way — exposed for differential tests.
    @raise Invalid_argument when a single step has more nondeterministic
    combinations than the configured cap. *)
val explore :
  ?config:config -> ?mode:Elastic_sim.Engine.eval_mode -> Netlist.t ->
  outcome
