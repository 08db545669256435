open Elastic_kernel
open Elastic_sched
open Elastic_netlist

(** Cycle-accurate simulator for elastic netlists.

    Each cycle proceeds in three phases:
    + environment nodes decide what they offer/accept
      ({!Nodes.begin_cycle}, one loop per role; only sources, sinks and
      shared modules act there, and [~choices] of {!step} is asked only
      about them);
    + the combinational phase settles every channel wire: the default
      backend runs each half once (a pair per node, per way of a shared
      module), in the order of the {!Halves} graph, over two-valued
      codes (a design whose halves form a combinational cycle is refused
      by {!create}); the Reference backend iterates every node to the
      fixed point of its monotone equations over three-valued wires;
    + the settled wires are one preallocated array of raw control
      codes, one per channel ({!Signal.code} layout); from it, without
      allocating, channel boundary events are derived (including
      token/anti-token cancellation), protocol monitors run,
      statistics are updated, and only the nodes that keep clock
      state are clocked (not a function stage, a lazy multiplexor or a
      sink whose spec keeps none), one loop per role over the engine's
      flat node tables ({!Nodes.clock}).  Payloads stay in the backend
      and are read only where a token moves or a monitor's retry is
      pending.

    A monitored engine (see [monitor] in {!create}) also runs the
    paper's verification conditions online: the SELF protocol monitors
    of §3.1 on every channel and a starvation watchdog for the leads-to
    constraint (1) on shared-module inputs. *)

(** Structured simulation failure: the cycle it occurred on and, when
    known, the offending node and channel, so shells and fault-campaign
    reports can render provenance instead of an opaque string. *)
type error = {
  err_cycle : int;
  err_node : Netlist.node_id option;
  err_channel : Netlist.channel_id option;
  err_code : string option;
      (** Lint rule code when the failure has a known static cause — the
          structural code (E001-E004) that made [create] refuse the
          netlist, ["E101"] when [create] found a buffer holding more
          initial tokens than its capacity, or ["E102"] when [create]
          found a combinational cycle in the half graph ({!Halves}),
          or when a fault left a channel field undetermined at runtime
          (a forged valid on an early multiplexor's select with no
          payload) — or the runtime diagnostic code
          ["E110"] when a budget watchdog fired: the settle loop
          exceeded its pass budget without converging, or the engine's
          cycle budget ([max_cycles]) was exhausted.  Campaign runners
          key retry/permanent-failure classification on this code. *)
  err_msg : string;
}

exception Simulation_error of error

val error_to_string : error -> string

(** A fault schedule is data, compiled by [Elastic_fault.Fault.plan]:
    [fs_rows.(k)] says what to perturb on cycle [fs_first + k].  A row
    overrides [fr_wires] (in channel-id order, the engine's, one merged
    override per channel) and forces each scheduler of [fr_predict]
    (a shared module's node, a way; {!set_faults} resolves each pair to
    the module's scheduler once, so a step forces it without a lookup
    or an allocation).  A [fw_replay] wire duplicates a
    token: the engine hands the backend the last payload it kept for
    the channel, [Int 0] if none, as the payload of the forced-valid
    wire.  A schedule holds no mutable
    state, so any number of engines of its netlist can share one. *)
type fault_wire = {
  fw_chan : Netlist.channel_id;
  fw_override : Instance.override;
  fw_replay : bool;
}

type fault_row = {
  fr_wires : fault_wire array;
  fr_predict : (Netlist.node_id * int) list;
}

type fault_schedule = { fs_first : int; fs_rows : fault_row array }

type t

(** How the combinational phase of each cycle is evaluated.

    [Arena] (the default) evaluates the static sweep of the half graph
    ({!Halves}), on the flat preallocated arena backend ({!Arena}): each
    half runs once, in topological order.  Channel state is each
    channel's raw control code, the array the post-settle phases read,
    one payload slot per channel, and per-node int tables (ports,
    register and payload bases) over which each half is dispatched on
    an int tag, instead of per-channel records and closures.

    [Reference] ({!Reference}) is the blind fixpoint: every node is
    re-evaluated in every pass until no wire changes, by its
    {!Control.program}, the equations the BLIF, SMV and Verilog exports
    print with their nets resolved, compiled once per engine into
    closures over the Reference's own store of three-valued fields.  It is kept as the independent
    oracle for differential testing: both modes settle every wire alike
    (node equations are monotone over the 3-valued wires, so the fixed
    point is unique), so traces, sink streams and errors agree; only
    eval counts differ.

    An engine holds exactly one of the two backends: an [Arena] engine
    builds a Reference only to render the error of a cycle it cannot
    settle ({!Arena.Undetermined}), and a [Reference] engine builds no
    arena.  Both take each node's ports from the same dense channel
    indices in {!Instance}: the Reference reads them there, the arena
    from the flat node tables {!Nodes} compiles from them, whose
    begin-cycle and clock-edge loops both backends share. *)
type eval_mode = Reference | Arena

(** Lowercase backend name: ["reference"], ["arena"]. *)
val mode_name : eval_mode -> string

(** Inverse of {!mode_name} (case-insensitive); [None] on anything
    else. *)
val mode_of_string : string -> eval_mode option

(** The mode {!create} uses when none is given: [Arena]. *)
val default_mode : eval_mode

(** [create netlist] compiles and validates the netlist; it raises
    {!Simulation_error} on an invalid one (see [err_code] in {!error}),
    in both modes on a combinational cycle: E102, "combinational cycle,
    undetermined channels:" and the channels of the cycle.

    @param monitor run both online checks (default [true]): the
    protocol monitors ({!violations}) and the leads-to watchdog
    ({!starvation_violations}); an unmonitored engine reports neither.
    @param liveness_bound watchdog threshold in cycles (default [64]).
    @param mode combinational evaluation strategy (default
    {!default_mode}).
    @param max_passes cap on global fixpoint passes in [Reference] mode
    before {!step} raises the non-convergence error (code ["E110"])
    naming the channels that were still changing (default
    [5 * channels + 16], which monotone evaluation can never exceed).
    @param max_cycles hard cycle budget: {!step} beyond it raises a
    typed ["E110"] timeout instead of letting a pathological workload
    (runaway replay storm, non-draining settle loop) hang the caller
    forever.  Default: unlimited.
    @raise Invalid_argument on a negative [max_cycles].
    @param clock time source for settle-phase wall-clock profiling
    (default {!Clock.monotonic}); inject {!Clock.ticker} in tests for
    deterministic timings. *)
val create :
  ?monitor:bool -> ?liveness_bound:int -> ?mode:eval_mode ->
  ?max_passes:int -> ?max_cycles:int -> ?clock:Clock.t -> Netlist.t -> t

val netlist : t -> Netlist.t

(** Cycles simulated so far. *)
val cycle : t -> int

val mode : t -> eval_mode

(** Evaluation-cost counters accumulated since creation. *)
val profile : t -> Profile.t

(** The static sweep ({!Halves.t}), one packed half an entry (also
    built in [Reference] mode, which refuses the same cyclic designs). *)
val sweep : t -> int array

(** Install (or remove, with [None]) the fault schedule every later
    {!step} reads.  On a cycle with a row, the step installs the row's
    overrides before the combinational phase, and forces the row's
    predictions after [~choices] has been applied, so a fault's
    prediction wins; any other cycle is the plain step.
    Until the last row the engine keeps the last payload seen on each
    replay channel; [set_faults] forgets those kept so far.
    @raise Simulation_error on a channel the netlist does not have, and
    on a forced prediction at a node that is not a shared module or at
    a way the module does not have (the error names the node). *)
val set_faults : t -> fault_schedule option -> unit

(** Append a per-cycle observer.  Observers run in the order they were
    added, at the very end of every {!step} — after monitors, counters
    and the clock edge, while {!cycle} still names the elapsed cycle —
    so each can read the elapsed cycle's {!code}s, {!signal}s,
    {!events}, counters and {!injected} channels.  The tracer, the
    metrics sampler and the VCD recorder all attach here, side by side.
    With no observer the hook is an empty loop and allocates nothing. *)
val add_observer : t -> (t -> unit) -> unit

(** [set_observer t (Some f)] replaces every observer with [f] alone;
    [None] removes them all. *)
val set_observer : t -> (t -> unit) option -> unit

(** Channels the fault schedule's row overrode in the elapsed cycle. *)
val injected : t -> Netlist.channel_id list

(** Simulate one cycle.  [choices] overrides nondeterministic decisions of
    environment nodes and [External] schedulers, keyed by node id; it is
    asked only about sources, sinks and shared modules, so it should be
    a pure lookup.
    @raise Simulation_error on a fault the design cannot survive. *)
val step : ?choices:(Netlist.node_id -> Instance.choice option) -> t -> unit

(** [run t n] simulates [n] cycles ({!step} [n] times). *)
val run :
  ?choices:(Netlist.node_id -> Instance.choice option) -> t -> int -> unit

(** {1 Observation}

    {!signal}, {!events} and {!code} describe the last completed cycle
    (all channels idle before the first) and keep doing so until the
    next {!step} begins; an observer (see {!add_observer}) reads them
    inside the step.  After a step that raised they are
    unspecified. *)

(** Raw (unresolved) drive of a channel: the four control bits as the
    endpoints drove them, with the payload when V+ is asserted.  Apply
    {!Signal.resolve} for the cancellation-adjusted view.  Built on
    demand: each call allocates the record and the payload's
    option. *)
val signal : t -> Netlist.channel_id -> Signal.t

(** The [data] of a channel's {!signal}, without building the record. *)
val data : t -> Netlist.channel_id -> Value.t option

(** Boundary events of a channel ({!Signal.events_of_code} of its
    {!code}; allocates nothing). *)
val events : t -> Netlist.channel_id -> Signal.events

(** Raw control code of a channel ({!Signal.code} of its {!signal},
    without building it). *)
val code : t -> Netlist.channel_id -> int

(** Transfer stream recorded at a sink node. *)
val sink_stream : t -> Netlist.node_id -> Transfer.t

(** Tokens delivered on a channel since creation. *)
val delivered : t -> Netlist.channel_id -> int

(** Tokens annihilated by anti-tokens on a channel since creation. *)
val killed : t -> Netlist.channel_id -> int

(** [(valid, retry, anti)] cycle counts of a channel: cycles with a token
    offered, with a token stalled, and with an anti-token present. *)
val activity : t -> Netlist.channel_id -> int * int * int

(** Delivered tokens per cycle at the sink's input channel. *)
val throughput : t -> Netlist.node_id -> float

(** Delivered tokens per cycle between the first and last delivery — the
    steady-state rate, free of warm-up and drain artifacts on finite
    workloads. *)
val windowed_throughput : t -> Netlist.node_id -> float

(** Signed occupancy of every buffer node. *)
val occupancies : t -> (Netlist.node_id * int) list

(** Net token count currently stored in buffers (tokens minus
    anti-tokens) — used by conservation tests. *)
val stored_tokens : t -> int

(** Protocol violations reported by the channel monitors, tagged with
    the channel name: in channel order, and oldest first within a
    channel. *)
val violations : t -> (string * Protocol.violation) list

(** {!violations}, each tagged with its channel's id instead. *)
val violations_by_id : t -> (Netlist.channel_id * Protocol.violation) list

(** [List.length (violations t)], without building the list. *)
val violation_count : t -> int

(** Leads-to (starvation) violations observed at shared-module inputs;
    always [[]] on an engine created with [~monitor:false]. *)
val starvation_violations : t -> string list

(** Shared-module schedulers, for misprediction statistics. *)
val schedulers : t -> (Netlist.node_id * Scheduler.t) list

(** Nodes that consume a nondeterministic choice each cycle. *)
val nondet_nodes : t -> Netlist.node list

(** {1 State snapshots}

    An engine holds every register in one int array and every stored
    payload in one payload array, in the slot layout {!Instance.layout}
    gives at {!create}: the nodes' slots first, then, on a monitored
    engine, one int slot per channel for its protocol monitor (previous
    code, stall count, payload held), one for the leads-to watchdog's
    wait counter on each shared-module input, and one payload slot per
    channel Retry+ covers for the monitor's retry payload.  A snapshot
    is an immutable copy of everything later cycles and observations
    read: both arrays (random-generator states and scheduler statistics
    included) plus the history, that is the cycle count, the per-channel
    counters ({!delivered}, {!killed}, {!activity}), every sink's
    transfer stream, and the violation and starvation logs.  Its size
    does not grow with the cycle count.  It shares no mutable data with
    the engine, so one snapshot can be read by several domains and
    restored into any engine created from the same netlist with the same
    [monitor] setting (an unmonitored engine lays out no monitor or
    watchdog slot).  The profile, the fault schedule, the observers and
    the elapsed cycle's {!code}s are not part of it.  The model checker
    ([Elastic_check.Explore]) and the fault checker
    ([Elastic_fault.Recovery]) restore from them. *)

type snap

val snapshot : t -> snap

(** Put the engine in the snapshot's state by blitting it back, whatever
    the engine did before — also after a {!step} that raised part-way
    through a cycle — so later steps, observations and snapshots are
    those of the engine the snapshot was taken from.  Allocates nothing.
    It leaves alone the observers, the fault schedule and the {!profile};
    [Elastic_fault.Recovery.run_faulted] resets those itself when it
    reuses an engine.  {!code}, {!signal}, {!events} and {!injected} are
    unspecified until the next {!step}.
    @raise Invalid_argument on a snapshot of another netlist shape or
    monitor setting. *)
val restore : t -> snap -> unit

(** Will [t] and an engine restored from the snapshot behave alike from
    now on, given the same choices and no injected faults?  Compares,
    without allocating, the state that decides every later cycle: the
    register slots of the engine's {e future mask}, built at {!create}
    ({!Instance.fold_future}: every register but a scheduler's statistics
    and the source and sink flags each cycle recomputes; the monitors'
    and the watchdog's slots included) and every payload slot
    ({!Value.equal}; the monitors' retry payloads included).  The cycle
    count, the counters, the streams and the violations so far are
    history: two
    engines that agree here produce the same signals, transfers and
    violations from now on, shifted by the difference of their cycle
    counts.  The fault cut-off ([Elastic_fault.Recovery]) and the model
    checker's state table ([Elastic_check.Explore]) both rest on it. *)
val same_future : t -> snap -> bool

(** Hash of the register and payload slots {!same_future} compares (the
    monitors' among them), computed without allocating: engines with the
    same future have the same fingerprint, so it buckets snapshots for
    {!same_future}. *)
val fingerprint : t -> int
