open Elastic_kernel
open Elastic_netlist

(** Recovery verification: run a faulted engine and classify the
    outcome against a fault-free {e golden run} of the same netlist by
    transfer-stream equivalence-modulo-delay (values must match in
    order; cycle stamps may lag — the recovery penalty).  The golden run
    does not depend on the faults, so a campaign simulates it once
    ({!golden_run}) and passes it to every {!check}.  The faulted engine
    steps only the cycles that can differ from the golden run: it starts
    at the first fault cycle and stops once it rejoins the golden
    trajectory ({!run_faulted}).

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
  stabilized : (int * int) option;
      (** [Some (cycles, lag)] when the faulted run rejoined the golden
          trajectory after the last fault window and was cut off there:
          [cycles] from {!Fault.horizon} to that point, and the [lag] by
          which it trails the golden run.  [None] when it ran to the
          end.  {!pp_report} does not print it. *)
}

val classification_label : classification -> string

val pp_classification : Format.formatter -> classification -> unit

val pp_report : Format.formatter -> report -> unit

(** The fault-free reference of a netlist: every sink's transfer
    stream, the monitor violations and the starvation list after
    [cycles] cycles, and the trajectory of [cycles + settle] cycles
    that {!check} fast-forwards along and splices from: per cycle, an
    {!Engine.snapshot} and an {!Engine.fingerprint}.  Immutable, so one
    value can be shared read-only by every scenario of a campaign,
    across domains too. *)
type golden

(** [golden_run net] simulates [net] without faults for [cycles]
    (default 300) plus [settle] (default 60) cycles in [mode] (default
    {!Engine.default_mode}).  Raises whatever {!Engine.create} or
    {!Engine.step} raise on [net] in the first [cycles] cycles; a
    failure in the settle window only ends the trajectory there. *)
val golden_run :
  ?cycles:int -> ?settle:int -> ?mode:Elastic_sim.Engine.eval_mode ->
  Netlist.t -> golden

(** What the faulted engine leaves after [cycles + settle] cycles. *)
type faulted = {
  f_sinks : (Netlist.node_id * Transfer.entry list) list;
      (** Every sink's transfers with their cycle stamps, in netlist
          order. *)
  f_violations : (string * Protocol.violation) list;
  f_starvation : string list;
  f_crash : string option;
      (** The engine raised; the other fields are as of that cycle. *)
  f_stabilized : (int * int) option;  (** See {!report}. *)
}

(** [faulted_engine golden] compiles the engine {!run_faulted} steps:
    [Engine.create ~monitor:true ~mode] on the golden run's netlist and
    eval mode.  One such engine can serve any number of scenarios, one
    after another: {!run_faulted} puts it back in a golden state before
    every run, so a campaign compiles one per worker rather than one per
    scenario.  It is mutable, so two domains must not use it at once. *)
val faulted_engine : golden -> Elastic_sim.Engine.t

(** [run_faulted golden ~faults] simulates the faulted engine over the
    golden run's [cycles + settle] window, but steps only the cycles
    that can differ from the golden run:
    - it starts from the golden snapshot at the first fault cycle (from
      cycle 0 when a fault duplicates a token, whose replayed payload
      depends on the prefix);
    - once every fault window has closed ({!Fault.horizon}), it stops at
      the first cycle whose state has the future of some golden cycle
      ({!Engine.same_future}), provided the golden trajectory covers the
      rest of the run from there and reports no violation or starvation
      in it, and splices that stretch of the golden sink streams,
      shifted by the lag, onto its own.
    The result is the one a run of every cycle gives.  [observer] is
    called once with the faulted engine before its first step, so it
    sees the cycles from the first fault to the cut-off.

    @param engine the engine to step, from {!faulted_engine} [golden]
    (default: a new one).  Before restoring it from the golden snapshot,
    [run_faulted] removes its observers ({!Engine.set_observer} [None]),
    resets its {!Elastic_sim.Profile} and installs this scenario's
    injector, so a reused engine gives exactly what a fresh one gives:
    the same result, profile counts and observed cycles.  It stays
    usable after a scenario that crashed.  Its profile then covers this
    scenario alone, and keeps the compile time of the engine's creation.
    @raise Invalid_argument when [engine] was built for another netlist
    (physical equality) or eval mode than [golden]. *)
val run_faulted :
  ?engine:Elastic_sim.Engine.t ->
  ?observer:(Elastic_sim.Engine.t -> unit) -> golden ->
  faults:Fault.t list -> faulted

(** Classify a faulted run against the golden run's first [cycles]
    cycles (see {!check}).
    @raise Invalid_argument when an alarm id names no sink. *)
val classify :
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list -> golden ->
  faults:Fault.t list -> faulted -> report

(** [check golden ~faults] is [classify golden ~faults (run_faulted
    golden ~faults)]: the {!golden_run} is the scenario's whole context,
    its netlist, eval mode, [cycles] and [settle] window.  The checker
    assumes a {e finite} workload that the reference run drains within
    [cycles]: transfers beyond the reference stream are reported as
    spurious (corruption), not run-ahead.

    @param alarms sink nodes that are error {e detectors} rather than
    data outputs: their streams are excluded from equivalence checking
    and the fault counts as [Detected] when the predicate holds for more
    faulted-run values than reference-run values.
    @param observer called once with the faulted engine before its first
    cycle, so a tracer (e.g. [Elastic_trace.Tracer.attach]) can record
    the fault's propagation from the first fault cycle to the cut-off
    (see {!run_faulted}).  The shared golden run is never observed.
    @param engine a faulted engine to reuse; see {!run_faulted}. *)
val check :
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  ?engine:Elastic_sim.Engine.t ->
  golden ->
  faults:Fault.t list ->
  report
