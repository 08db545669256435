open Elastic_netlist

(** Analytic throughput bounds via the marked-graph abstraction.

    Abstracting choice away (multiplexors treated as plain joins, a
    shared module as one vertex per way, {!Netlist.way}, with the hint
    entering way 0), an elastic netlist is a marked graph whose
    throughput is bounded by the minimum cycle ratio

    {v    theta  <=  min over directed cycles C  (tokens in C / EBs in C)   v}

    — e.g. the bubble-inserted loop of Fig. 1(b) has one token and two
    EBs, hence throughput 1/2.  The bound is exact for live, choice-free
    nets; with early evaluation the simulator can beat it (that is the
    point of the paper), so treat it as the {e non-speculative} baseline.

    The minimum ratio is found by binary search over a parametric negative
    -cycle test (Bellman-Ford), which is robust and fast at these sizes. *)

type cycle = {
  ratio : float;  (** tokens / latency of the critical cycle. *)
  tokens : int;
  latency : int;  (** Number of EBs around the cycle. *)
  nodes : string list;  (** Node names around the cycle. *)
}

val pp_cycle : Format.formatter -> cycle -> unit

(** [throughput_bound net] is the minimum cycle ratio, or [1.0] when the
    netlist has no token-bearing cycles (feed-forward pipelines).
    @raise Diagnostic.Reject with {!Halves.refusal}'s diagnostic: a
    structural error (E001-E004), or a combinational loop, forward or
    backward (E102, the half graph's verdict, as lint's and
    [Engine.create]'s). *)
val throughput_bound : Netlist.t -> float

(** The cycle attaining the bound, when any directed cycle exists.
    @raise Diagnostic.Reject as {!throughput_bound}. *)
val critical_cycle : Netlist.t -> cycle option

(** [effective_cycle_time net] is cycle time ({!Timing.analyze} with
    its default parameters) divided by the throughput bound — the paper's figure of merit for comparing design points. *)
val effective_cycle_time : Netlist.t -> float
