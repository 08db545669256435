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
  ref_transfers : int;
      (** Data-sink transfers in the reference run's first [cycles]. *)
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
    stream over the whole trajectory, as an array with the count of
    entries stamped before each cycle, the alarm sinks with their trip
    counts over every prefix of their stream, the monitor violations
    and the starvation list at its end, and the trajectory
    of [cycles + settle] cycles that {!check} fast-forwards along and
    cuts off against: per cycle, an {!Engine.snapshot} and an
    {!Engine.fingerprint}.  Everything a scenario reads of it is
    computed once here, so a scenario costs the cycles it steps, not
    the length of the run.  Immutable, so one value can be shared
    read-only by every scenario of a campaign, across domains too. *)
type golden

(** [golden_run net] simulates [net] without faults for [cycles]
    (default 300) plus [settle] (default 60) cycles in [mode] (default
    {!Engine.default_mode}).  Raises whatever {!Engine.create} or
    {!Engine.step} raise on [net] in the first [cycles] cycles; a
    failure in the settle window only ends the trajectory there.

    @param alarms sink nodes that are error {e detectors} rather than
    data outputs: their streams are excluded from equivalence checking
    and a fault counts as [Detected] when the predicate holds for more
    faulted-run values than reference-run values (see {!check}).  The
    predicates must be pure: every scenario of a campaign calls them,
    from any domain.
    @raise Invalid_argument when an alarm id names no sink, before
    anything is simulated. *)
val golden_run :
  ?cycles:int -> ?settle:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  ?mode:Elastic_sim.Engine.eval_mode -> Netlist.t -> golden

(** What the faulted engine leaves after [cycles + settle] cycles, as a
    delta on the golden run: the faulted run equals the golden one
    before [f_start], and from the cut-off on it is the golden run
    delayed by the lag.  {!materialize} spells out the whole streams. *)
type faulted = {
  f_start : int;
      (** The cycle the faulted engine started from.  Every sink's
          transfers stamped before it are the golden run's. *)
  f_delta : Transfer.entry array array;
      (** Per sink, in netlist order: the transfers the faulted engine
          delivered from [f_start] until it stopped, with their cycle
          stamps. *)
  f_cut : (int * int) option;
      (** [Some (c, g)] when the engine was cut off at cycle [c], whose
          state has the future of golden cycle [g]: the rest of the
          window is the golden run from [g] on, [c - g] cycles later.
          [None] when it ran to the end or crashed. *)
  f_violations : (Netlist.channel_id * Protocol.violation) list;
      (** {!Engine.violations_by_id}. *)
  f_starvation : string list;
  f_crash : string option;
      (** The engine raised; the other fields are as of that cycle. *)
  f_stabilized : (int * int) option;  (** See {!report}. *)
}

(** Every sink's transfers in the faulted run, with their cycle stamps,
    in netlist order: the golden prefix, the delta, and the shifted
    golden stretch after the cut-off.  A run of every cycle is the
    delta [f_start = 0], [f_cut = None], so this is what such a run's
    sink streams hold. *)
val materialize :
  golden -> faulted -> (Netlist.node_id * Transfer.entry list) list

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
      in it; the rest of the run is that stretch of the golden run,
      shifted by the lag.
    The result ({!materialize}) is the one a run of every cycle gives.
    [observer] is called once with the faulted engine before its first
    step, so it sees the cycles from the first fault to the cut-off.

    @param engine the engine to step, from {!faulted_engine} [golden]
    (default: a new one).  Before restoring it from the golden snapshot,
    [run_faulted] removes its observers ({!Engine.set_observer} [None]),
    resets its {!Elastic_sim.Profile} and installs this scenario's
    fault plan ({!Elastic_sim.Engine.set_faults}, which also forgets the
    payloads kept for duplicated tokens), so a reused engine gives
    exactly what a fresh one gives:
    the same result, profile counts and observed cycles.  It stays
    usable after a scenario that crashed.  Its profile then covers this
    scenario alone, and keeps the compile time of the engine's creation.
    @raise Invalid_argument when [engine] was built for another netlist
    (physical equality) or eval mode than [golden], or from {!Fault.plan}
    for a fault that cannot act, before any cycle runs. *)
val run_faulted :
  ?engine:Elastic_sim.Engine.t ->
  ?observer:(Elastic_sim.Engine.t -> unit) -> golden ->
  faults:Fault.t list -> faulted

(** Classify a faulted run against the golden run over the same
    [cycles + settle] window (see {!check}).  It compares the delta with
    the golden entries at the same indices and reads the rest from the
    counts the golden run holds, so it costs the delta, not the run. *)
val classify : golden -> faults:Fault.t list -> faulted -> report

(** [check golden ~faults] is [classify golden ~faults (run_faulted
    golden ~faults)]: the {!golden_run} is the scenario's whole context,
    its netlist, eval mode, [cycles] and [settle] window, and alarms.
    Both runs are read over the same [cycles + settle] window, where
    reports, alarm trips and transfers beyond the golden run's count
    against the faulted run; the transfers the golden run delivered in
    its first [cycles] cycles must all have arrived by its end.

    @param observer called once with the faulted engine before its first
    cycle, so a tracer (e.g. [Elastic_trace.Tracer.attach]) can record
    the fault's propagation from the first fault cycle to the cut-off
    (see {!run_faulted}).  The shared golden run is never observed.
    @param engine a faulted engine to reuse; see {!run_faulted}. *)
val check :
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  ?engine:Elastic_sim.Engine.t ->
  golden ->
  faults:Fault.t list ->
  report
