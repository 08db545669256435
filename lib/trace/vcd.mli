open Elastic_netlist
open Elastic_sim

(** VCD (IEEE 1364 value-change dump) export of a traced run.

    Every elastic channel contributes six variables under one scope:

    - [vp], [sp], [vm], [sm] — the raw SELF handshake wires
      (V+, S+, V-, S-), 1 bit each;
    - [state] — the derived channel state, 2 bits:
      [00] Idle, [01] Transfer, [10] Retry, [11] Anti;
    - [data] — a 64-bit flattened image of the token payload
      ([Bool] 1 bit, [Int] 8 bits, [Word] 64 bits, [Str] 8 bits per
      character, tuples concatenated depth-first, truncated to 64 bits),
      meaningful while [vp] is high.

    One VCD time unit is one simulated cycle.  The header is fully
    deterministic (no wall-clock date), so golden tests can lock it
    byte-exactly.  The output parses in standard viewers; see README for
    a GTKWave recipe. *)

type recorder

(** [create net] prepares a recorder for the netlist's channels.
    Install it with [Engine.add_observer eng (observe r)]; it runs
    beside a {!Tracer} or a metrics sampler on the same engine. *)
val create : Netlist.t -> recorder

(** Observer body: dump the elapsed cycle's value changes. *)
val observe : recorder -> Engine.t -> unit

(** Cycles recorded so far. *)
val cycles : recorder -> int

(** The complete VCD document (header + change dump so far). *)
val contents : recorder -> string

val save : string -> recorder -> unit

(** The deterministic header (through [$enddefinitions]) the recorder
    will emit for this netlist — exposed for golden tests. *)
val header : Netlist.t -> string
