(** BLIF export of the elastic control network.

    The paper's toolkit can emit "a blif model for logic synthesis with
    SIS"; this module does the same for the {e control} layer: every
    channel's [(V+, S+, V-, S-)] bits become nets, controller state
    (EB occupancy counters, fork done/pending bits, anti-token queues)
    becomes [.latch]es with one-hot encodings, and the controller
    equations — each node's {!Control} table, which {!Smv} and
    {!Verilog} print too — become [.names] gates.

    Data is abstracted exactly as in the {!Smv} export: multiplexor
    select values, shared-module predictions, variable-latency outcome
    bits and the environment's offer/stall decisions are primary inputs.
    Multiplexors and shared modules must be 2-way (one select bit).

    The result is acceptable to SIS/ABC-style tools for logic
    optimization of the distributed controllers. *)

(** [emit ppf ~model net] writes one [.model].
    @raise Invalid_argument on multiplexors or shared modules with more
    than two ways. *)
val emit : Format.formatter -> model:string -> Netlist.t -> unit

val to_string : model:string -> Netlist.t -> string

val save : string -> model:string -> Netlist.t -> unit
