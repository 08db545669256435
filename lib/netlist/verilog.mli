(** Verilog export of the elastic controller and datapath skeleton.

    The paper's toolkit assembles "a set of predefined parameterized
    control circuit primitives" into a Verilog netlist (§5).  This module
    does the same, but generates the primitives: each controller family
    (EBs of both latencies, lazy join, eager fork, early-evaluation
    multiplexor, shared modules, variable-latency stage, environment
    sources and sinks) is one parameterized module whose body prints the
    {!Control} table of every shape the design uses, one [generate]
    branch per port count (or initial tokens, for EBs).  These are the
    equations the BLIF export prints and co-simulation checks.  Only the
    datapath (EB data registers, multiplexor data selects) and the
    scheduler modules are written by hand.  Functional blocks are emitted
    as module instances named after the function, to be bound to user RTL
    at synthesis time; the top module's ports are the clock, reset and
    the environment's offers, source data and stalls. *)

(** The scheduler modules and the controller library generated for the
    two-port shape of every family (self-contained Verilog). *)
val prelude : string

(** [emit ppf ~top net] writes the scheduler modules, the controller
    library for the shapes [net] uses, and the top module for [net]. *)
val emit : Format.formatter -> top:string -> Netlist.t -> unit

val to_string : top:string -> Netlist.t -> string

val save : string -> top:string -> Netlist.t -> unit
