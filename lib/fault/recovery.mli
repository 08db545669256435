open Elastic_kernel
open Elastic_netlist

(** Recovery verification: run a faulted engine and classify the
    outcome against a fault-free {e golden run} of the same netlist by
    transfer-stream equivalence-modulo-delay (values must match in
    order; cycle stamps may lag — the recovery penalty).  The golden run
    does not depend on the faults, so a campaign simulates it once
    ({!golden_run}) and passes it to every {!check}.

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

(** The fault-free reference of a netlist: every sink's transfer
    stream, the monitor violations and the starvation list after
    [cycles] cycles.  Immutable, so one value can be shared read-only by
    every scenario of a campaign, across domains too. *)
type golden

(** [golden_run net] simulates [net] without faults for [cycles] cycles
    (default 300) in [mode] (default {!Engine.default_mode}).  Raises
    whatever {!Engine.create} or {!Engine.step} raise on [net]. *)
val golden_run :
  ?cycles:int -> ?mode:Elastic_sim.Engine.eval_mode -> Netlist.t -> golden

(** [check net ~faults] simulates the faulted engine for [cycles] cycles
    plus a [settle] window in which a late (replayed) token may still
    drain, and classifies it against the golden run's first [cycles]
    cycles.  The checker assumes a {e finite} workload that the
    reference run drains within [cycles]: transfers beyond the
    reference stream are reported as spurious (corruption), not
    run-ahead.

    @param golden the fault-free reference to classify against; built
    on the spot by {!golden_run} when absent.  It must come from
    [golden_run ~cycles ~mode net] for this very [net] (physical
    equality), [cycles] and [mode], or [check] raises
    [Invalid_argument].
    @param alarms sink nodes that are error {e detectors} rather than
    data outputs: their streams are excluded from equivalence checking
    and the fault counts as [Detected] when the predicate holds for more
    faulted-run values than reference-run values.
    @param mode engine evaluation strategy (default
    {!Engine.default_mode}); exposed for differential tests.
    @param observer called once with the faulted engine before its first
    cycle, so a tracer (e.g. [Elastic_trace.Tracer.attach]) can be
    installed and the injected fault's propagation recorded.  The golden
    run is never observed: it is shared, and its cost is paid once per
    campaign rather than per scenario. *)
val check :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  ?mode:Elastic_sim.Engine.eval_mode ->
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  ?golden:golden ->
  Netlist.t ->
  faults:Fault.t list ->
  report
