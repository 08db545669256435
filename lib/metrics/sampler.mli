open Elastic_sim

(** Engine instrumentation: a {!Metrics} registry populated from one of
    the engine's end-of-cycle observers ({!Engine.add_observer}), plus a
    windowed JSONL time series.

    Metric families (Prometheus naming, [elastic_] prefix):
    - engine: [elastic_engine_cycles_total], [..._node_evals_total],
      [..._convergence_retry_cycles_total], the [..._settle_passes]
      histogram, [..._settle_seconds] and [..._stored_tokens] gauges,
      [..._protocol_violations_total];
    - per channel ([channel] label): [elastic_channel_transfers_total],
      [..._stall_cycles_total], [..._anti_cycles_total],
      [..._kills_total];
    - per buffer ([node] label): [elastic_buffer_occupancy] gauge;
    - per scheduler ([node] label): [elastic_sched_serves_total],
      [..._mispredictions_total], [..._prediction_changes_total], the
      [..._replay_penalty_cycles] histogram and the [..._accuracy]
      gauge;
    - per sink ([sink] label): [elastic_sink_throughput] gauge
      (tokens/cycle since creation);
    - faults: [elastic_fault_injections_total], and
      [elastic_fault_recovery_total] ([class] label) via
      {!note_recovery}.

    Counts the engine already keeps — cycles, node evaluations,
    protocol violations and the four per-channel counts — are read from
    the engine when a snapshot is taken ({!sample} and each window
    row), as the difference from their values at {!create}; so are the
    gauges.  The observer itself only does what the engine does not:
    the settle-pass histogram, convergence retries, injections and
    scheduler activity, with constant work per scheduler and no
    per-channel work or allocation.  With no sampler attached the
    engine hot path is untouched. *)

type t

(** One emitted window: the cycle count at emission, the window length
    in cycles, and the {e cumulative} snapshot at that point (rates are
    a consumer-side subtraction, as with Prometheus scrapes). *)
type row = {
  r_cycle : int;
  r_window : int;
  r_samples : Metrics.sample list;
}

(** [create eng] builds a sampler that counts from the engine's current
    cycle on (not yet installed — use {!attach}).
    @param window emit a {!row} every [window] cycles (default [0]: no
    windowing).
    @param on_window window callback. *)
val create : ?window:int -> ?on_window:(row -> unit) -> Engine.t -> t

(** [attach eng] = {!create} + [Engine.add_observer]. *)
val attach : ?window:int -> ?on_window:(row -> unit) -> Engine.t -> t

(** The observer body, called once per cycle. *)
val observe : t -> Engine.t -> unit

(** Snapshot with the engine's counts and the gauges brought up to date.
    Call it between steps.  After an {!Engine.step} that raised, the
    counts read from the engine may already cover part of the failed
    cycle: its evaluations, and — when it raised at the sink streams or
    the clock edge — its per-channel counts and violations, which the
    engine bumps before the clock edge.  The cycle counter, the pass
    histogram and the scheduler families stop before that cycle, since
    the observer never saw it. *)
val sample : t -> Engine.t -> Metrics.sample list

(** One JSONL line (no trailing newline), schema
    [elastic-speculation/metrics/v1]; histograms are summarized as
    count/sum/min/max/p50/p90/p99. *)
val jsonl_of_row : row -> string

(** Count a recovery classification into
    [elastic_fault_recovery_total{class="..."}]. *)
val note_recovery :
  Metrics.t -> Elastic_fault.Recovery.classification -> unit

(** The sample {!note_recovery} leaves in an empty registry. *)
val recovery_sample : Elastic_fault.Recovery.classification -> Metrics.sample
