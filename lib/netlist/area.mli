(** Gate-equivalent area model for elastic netlists.

    The paper reports {e relative} area overheads of speculation (12 % for
    the variable-latency ALU, 36 % for the SECDED stage).  This model
    assigns gate-equivalent costs to every primitive so those relative
    comparisons can be reproduced; the constants are documented here and
    can be overridden. *)

type params = {
  latch_per_bit : float;  (** One transparent latch (Fig. 2(a) EB). *)
  flop_per_bit : float;  (** One flip-flop (Fig. 5 EB). *)
  eb_control : float;  (** Handshake controller of a standard EB. *)
  eb0_control : float;  (** Controller of the zero-backward-latency EB. *)
  fork_control_per_branch : float;
  mux_per_bit_per_way : float;  (** Datapath mux cost. *)
  mux_control : float;  (** Plain join-mux controller. *)
  early_mux_control_per_way : float;
      (** Extra anti-token controller cost of an early-evaluation mux. *)
  shared_control_per_way : float;  (** Fig. 4(b) controller. *)
  scheduler : float;
  varlat_control : float;  (** Stalling controller of a Fig. 6(a) unit. *)
}

val default : params

(** Total area of the netlist in gate equivalents. *)
val total : ?params:params -> Netlist.t -> float
