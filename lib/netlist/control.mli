(** The control equations of every elastic controller, stated once.

    For each node kind this module returns the controller's equation
    table: combinational assignments (net := expression), registers with
    their reset values, and the environment inputs the control
    abstraction leaves free (source offers, sink stalls, multiplexor
    select values, shared-module predictions, variable-latency outcomes).
    {!Blif}, {!Smv} and {!Verilog} print these tables over names; the
    simulator's Reference backend and {!Halves} read the same tables as
    {!program}s, with every net resolved to a channel bit or a slot, so
    no module but this one names a net.  The arena backend, which the
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

(** Boolean expressions over nets ['n].  [Is (x, j)] holds when the
    environment input [x] (a [Choice]) has value [j]; a printer for
    one-bit encodings reads [Is (x, 1)] as [x] and [Is (x, 0)] as
    [Not x]. *)
type 'n expr =
  | T
  | F
  | Var of 'n
  | Not of 'n expr
  | And of 'n expr list
  | Or of 'n expr list
  | Is of 'n * int

(** Over named nets, as the exports print them. *)
type e = string expr

(** A free environment input: one bit, or a choice among [n] values. *)
type 'n input = Bit of 'n | Choice of 'n * int

(** A register [q] loaded from the net [d] at every clock edge. *)
type 'n reg = { d : 'n; q : 'n; init : bool }

(** One controller's equations, in emission order. *)
type 'n table = {
  inputs : 'n input list;
  assigns : ('n * 'n expr) list;
  regs : 'n reg list;
}

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
val table :
  u:string -> wire:(Netlist.port -> string -> string) -> shape -> string table

(** [map f t] renames every net of [t] by [f]. *)
val map : ('a -> 'b) -> 'a table -> 'b table

(** A resolved net: control bit [f] ({!Elastic_kernel.Signal.code}
    layout) of the channel at a port, or a slot.  Slots number a table's
    registers ([q]) and inputs in declared order, then its internal nets
    in the order of their assigns. *)
type net = Chan of Netlist.port * int | Slot of int

(** [program s] is {!table} of [s] with every net resolved, its number
    of [slots], and the sublist of its assigns the channel bits need
    ([live]: theirs and the internal nets they read, not the next-state
    nets); derived once per process ({!memo}). *)
type program = {
  resolved : net table;
  slots : int;
  live : (net * net expr) list;
}

val program : shape -> program

(** [memo f] is [f] with each result kept for the life of the process,
    in an immutable map per shape that every domain shares. *)
val memo : (shape -> 'a) -> shape -> 'a

(** [bit f c] is the flat name of control bit [f] of channel [c] in the
    BLIF and SMV exports: [f_<id>]. *)
val bit : string -> Netlist.channel -> string

(** [node net n] is the table of [n] under the flat names the BLIF and
    SMV exports share: channel bits are named by {!bit}, and [n]'s
    internal nets and inputs are prefixed with its {!sanitize}d name.
    @raise Invalid_argument if a port of [n] is unconnected. *)
val node : Netlist.t -> Netlist.node -> string table

(** A node name with every character outside [[A-Za-z0-9_]] replaced by
    [_], as exported identifiers need. *)
val sanitize : string -> string

(** Resolved boundary events of one channel, given its [field -> net]
    naming: a token delivered downstream, a token leaving upstream
    (delivered or killed). *)

val token_in : (string -> string) -> e

val token_out : (string -> string) -> e
