(** Evaluation-cost observability for the engine.

    Every {!Engine.step} records how many evaluations the combinational
    settle phase took — one per half a node runs in the arena's sweep,
    one per node and pass in the Reference fixpoint — how those
    evaluations distribute over nodes, how many passes the cycle took,
    and the wall clock spent settling.  The shell's [profile] command
    and the bench's [--json] trajectory records are rendered from
    this. *)

type t

(** [create ~n_nodes] starts an empty profile over [n_nodes] dense node
    indices. *)
val create : n_nodes:int -> t

(** Zero every per-cycle counter: cycles, per-node evals (and so their
    total), settle seconds, the pass histogram and maxima.  {!compile_seconds} is left
    alone.  [Elastic_fault.Recovery.run_faulted] resets the faulted
    engine's profile before each scenario, so on a reused engine the
    profile covers that scenario and still holds the compile time of the
    engine's creation; [Elastic_runner.Workload] therefore gives such a
    scenario a zero-length compile span and only the scenario that
    compiled the engine its real compile time. *)
val reset : t -> unit

(** {1 Recording (called by the engine)} *)

(** One evaluation of node [i] (the Reference fixpoint's). *)
val note_eval : t -> int -> unit

(** The per-node counters themselves, for the flat-arena settle loop to
    bump in place: one increment per half evaluation.  They are the
    profile's only evaluation counter; {!evals} sums them. *)
val per_node_array : t -> int array

(** End of one settle phase: the cycle's pass count, which the settle
    loop reports, and its wall-clock duration in nanoseconds.  The
    Reference fixpoint counts the passes it ran over every node; the
    arena's one sweep counts 1; both count 0 with no nodes.  It
    allocates nothing unless the cycle took more passes than any before
    it and the histogram has to grow. *)
val record_cycle : t -> passes:int -> ns:int -> unit

(** Engine-construction cost (netlist compile, schedule build, arena
    packing), stamped once by [Engine.create].  Unlike the per-cycle
    counters it survives {!reset}: compilation happened once, before
    any observation window. *)
val set_compile_seconds : t -> float -> unit

(** {1 Reading} *)

val cycles : t -> int

(** Total evaluations across all cycles: the sum of the per-node
    counters, computed at each call (one pass over the nodes), so read
    it at snapshot time rather than every cycle. *)
val evals : t -> int

val evals_per_cycle : t -> float

(** Accumulated wall-clock seconds spent in settle phases (kept as
    whole nanoseconds). *)
val settle_seconds : t -> float

(** Wall-clock seconds [Engine.create] spent compiling (0 until the
    engine stamps it). *)
val compile_seconds : t -> float

(** Worst settle pass count over all cycles. *)
val max_passes : t -> int

(** Pass count of the most recent cycle (0 before the first cycle) —
    read by per-cycle observers such as [Elastic_metrics.Sampler]. *)
val last_passes : t -> int

(** [(passes, cycles)] pairs, ascending: how many cycles needed each
    pass count. *)
val pass_histogram : t -> (int * int) list

(** The [n] most-evaluated nodes as [(dense index, eval count)],
    descending. *)
val top_nodes : t -> int -> (int * int) list

(** [pp ~name] renders a report; [name] maps dense node indices to
    display names. *)
val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
