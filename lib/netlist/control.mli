(** The control equations of every elastic controller, stated once.

    For each node kind this module returns the controller's equation
    table: combinational assignments (net := expression), registers with
    their reset values, and the environment inputs the control
    abstraction leaves free (source offers, sink stalls, multiplexor
    select values, shared-module predictions, variable-latency outcomes).
    {!Blif}, {!Smv} and {!Verilog} print these tables, the simulator's
    Reference backend evaluates them, and {!Halves} reads from them
    what each controller half reads.  The arena backend, which the
    engine runs by default, codes the same controllers a second time, by
    hand; the differential tests run it in lockstep with the Reference
    and the BLIF co-simulation checks the printed gates bit for bit, so
    all three exports inherit both checks.
    The emission order of inputs and registers is part of the contract:
    the Reference binds them to node state in that order.

    State is one-hot encoded in boolean registers: an EB's signed
    occupancy -2..2 in five bits, fork and early-multiplexor anti-token
    counters 0..2 in three bits each, the variable-latency stage's
    empty/ready/slow in three bits. *)

(** Boolean expressions over named nets.  [Is (x, j)] holds when the
    environment input [x] (a [Choice]) has value [j]; a printer for
    one-bit encodings reads [Is (x, 1)] as [x] and [Is (x, 0)] as
    [Not x]. *)
type e =
  | T
  | F
  | Var of string
  | Not of e
  | And of e list
  | Or of e list
  | Is of string * int

(** A free environment input: one bit, or a choice among [n] values. *)
type input = Bit of string | Choice of string * int

(** A register [q] loaded from the net [d] at every clock edge. *)
type reg = { d : string; q : string; init : bool }

(** One controller's equations, in emission order. *)
type t = { inputs : input list; assigns : (string * e) list; regs : reg list }

(** Control shape of a node: what its equations depend on.  A lazy
    multiplexor of [ways] inputs is, control-wise, the lazy join of its
    select and its [ways] data inputs. *)
type shape =
  | Source
  | Sink
  | Eb of int  (** initial tokens *)
  | Eb0 of bool  (** initially full *)
  | Join of int
  | Fork of int
  | Mux of { ways : int; early : bool }
  | Shared of { ways : int; hinted : bool }
  | Varlat

val shape : Netlist.kind -> shape

(** [table ~u ~wire s] is the controller of shape [s].  [u] prefixes
    the controller's internal nets and inputs; [wire p f] names the
    control bit [f] (["vp"], ["sp"], ["vm"] or ["sm"]) of the channel
    at port [p]. *)
val table : u:string -> wire:(Netlist.port -> string -> string) -> shape -> t

(** [bit f c] is the flat name of control bit [f] of channel [c] in the
    BLIF and SMV exports: [f_<id>]. *)
val bit : string -> Netlist.channel -> string

(** [node net n] is the table of [n] under the flat names the BLIF and
    SMV exports share: channel bits are named by {!bit}, and [n]'s
    internal nets and inputs are prefixed with its {!sanitize}d name.
    @raise Invalid_argument if a port of [n] is unconnected. *)
val node : Netlist.t -> Netlist.node -> t

(** A node name with every character outside [[A-Za-z0-9_]] replaced by
    [_], as exported identifiers need. *)
val sanitize : string -> string

(** Resolved boundary events of one channel, given its [field -> net]
    naming: a token delivered downstream, a token leaving upstream
    (delivered or killed), an anti-token delivered upstream, an
    anti-token leaving downstream. *)

val token_in : (string -> string) -> e

val token_out : (string -> string) -> e

val anti_in : (string -> string) -> e

val anti_out : (string -> string) -> e
