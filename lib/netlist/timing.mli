(** Static cycle-time analysis of an elastic netlist.

    Two families of combinational paths bound the clock period:

    - {b forward} datapath paths, launched at sources and at the output of
      any elastic buffer (all buffers here have forward latency 1) and
      captured at buffer inputs or sinks;
    - {b backward} control paths carrying stop/kill bits, which are cut by
      standard EBs (backward latency 1) but traverse zero-backward-latency
      EBs, join/fork/mux/shared controllers combinationally — the paper's
      §4.3 warning about chaining too many [Eb0]s shows up here.

    A shared module is read way by way ({!Netlist.feeds}): way [j]'s
    paths run between [In j] and [Out j], and the hint enters way 0.
    Whether a design has a combinational loop is the half graph's
    verdict ({!Halves.combinational_cycle}), as for lint and
    [Engine.create]; every path this analysis follows is a read of that
    graph, so an accepted design has finite paths.

    Delays are in the same normalized units as {!Func.t.delay}. *)

type params = {
  fork_delay : float;
  join_delay : float;  (** Control contribution of a lazy join. *)
  mux_delay : float;  (** Datapath select mux. *)
  early_mux_delay : float;  (** Extra early-evaluation control. *)
  shared_grant_delay : float;
      (** Scheduler grant + input mux of a shared module (the paper: "one
          multiplexor plus the delay in the scheduling decision"). *)
  eb0_backward_delay : float;  (** Stop/kill through a Fig. 5 EB. *)
  register_overhead : float;  (** Setup + clock-to-q margin. *)
  varlat_control_delay : float;
      (** Controller gates after the error detector in a stalling
          variable-latency unit (Fig. 6(a)). *)
  varlat_slow_margin : float;  (** Capture margin of the slow path. *)
}

val default : params

type report = {
  cycle_time : float;
  forward_delay : float;
  backward_delay : float;
  forward_path : string list;  (** Channel names along the worst path. *)
  backward_path : string list;
}

val pp_report : Format.formatter -> report -> unit

(** [analyze t] computes the report, or [Error msg] with the message of
    {!Halves.refusal}: the netlist's first structural error (E001-E004),
    else its first combinational loop (E102). *)
val analyze : ?params:params -> Netlist.t -> (report, string) result

(** Convenience wrapper.  @raise Invalid_argument where {!analyze}
    errs. *)
val cycle_time : ?params:params -> Netlist.t -> float
