open Elastic_kernel
open Elastic_netlist

(** Recovery verification: run a faulted and an unfaulted engine in
    lockstep and classify the outcome by transfer-stream
    equivalence-modulo-delay (values must match in order; cycle stamps
    may lag — the recovery penalty).

    Classification precedence: [Crashed] (the faulted engine raised) >
    [Detected] (a protocol monitor, the starvation watchdog, or a
    user-declared alarm sink flagged the fault) > [Silent_corruption]
    (a data sink delivered a wrong value) > [Deadlock] (transfers
    missing after the settle window) > [Corrected] (equivalent modulo a
    positive delay) > [Masked] (streams identical including stamps). *)

type classification =
  | Masked
  | Corrected of int  (** Max extra delay, in cycles, at any data sink. *)
  | Detected of string  (** Provenance of the first detection. *)
  | Silent_corruption of string
  | Deadlock of string
  | Crashed of string

type report = {
  classification : classification;
  fault_desc : string list;  (** One line per injected fault. *)
  ref_transfers : int;  (** Data-sink transfers in the reference run. *)
  faulted_transfers : int;
  fresh_violations : (string * Protocol.violation) list;
      (** Monitor violations present in the faulted run only. *)
}

val classification_label : classification -> string

val pp_classification : Format.formatter -> classification -> unit

val pp_report : Format.formatter -> report -> unit

(** [check net ~faults] simulates [cycles] lockstep cycles, then lets the
    faulted engine drain for [settle] more cycles, and classifies.
    The checker assumes a {e finite} workload that the reference run
    drains within [cycles]: transfers beyond the reference stream are
    reported as spurious (corruption), not run-ahead.

    @param alarms sink nodes that are error {e detectors} rather than
    data outputs: their streams are excluded from equivalence checking
    and the fault counts as [Detected] when the predicate holds for more
    faulted-run values than reference-run values.
    @param mode engine evaluation strategy for both runs (default
    {!Engine.default_mode}); exposed for differential tests.
    @param observer called once with the {e faulted} engine before the
    first cycle, so a tracer (e.g. [Elastic_trace.Tracer.attach]) can be
    installed and the injected fault's propagation recorded; the
    reference engine stays unobserved. *)
val check :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  ?mode:Elastic_sim.Engine.eval_mode ->
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  Netlist.t ->
  faults:Fault.t list ->
  report
