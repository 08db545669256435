(** Text serialization of elastic netlists.

    The paper's toolkit operates on "an abstract netlist representing an
    elastic system as a collection of modules and FIFOs connected by
    elastic channels"; this module reads and writes that representation as
    a line-oriented text format (extension [.enl]):

    {v
    elastic-netlist v1
    node 0 in0 source counter 0 2
    node 2 mux mux 2 early
    node 3 F func F 1 5.0 80.0
    chan 0 in0>mux 0 out0 2 in0 8
    v}

    Functional blocks serialize by name/arity/delay/area and are
    reconstructed through {!Library}, so custom blocks must be registered
    before {!load}.  Identifiers are renumbered on load; structure, names,
    initial tokens and widths round-trip exactly. *)

val write : Format.formatter -> Netlist.t -> unit

val to_string : Netlist.t -> string

(** [parse text] rebuilds the netlist.  An [Error] raised while reading a
    line starts with ["line N: "], [N] counting from 1 in [text] with
    blank and [#] lines included, and gives the reason; a netlist that
    reads but fails {!Netlist.validate} is reported as such. *)
val parse : string -> (Netlist.t, string) result

val save : string -> Netlist.t -> unit

val load : string -> (Netlist.t, string) result
