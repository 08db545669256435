(** Multi-track span collection for one campaign run.

    The parallel runner gives every worker its own single-writer
    {!Recorder} (disjoint span-id ranges, shared trace id and clock);
    the collector owns those recorders, merges their rings after the
    run, and derives the scheduling gauges — per-worker utilization,
    queue wait, spans/sec — that feed the metrics registry. *)

type t

(** @param capacity_per_track ring size of each worker's recorder
      (default 8192).
    @param clock shared time source (default
      [Elastic_sim.Clock.monotonic]).
    @param trace trace id; defaults to a reading of [clock], which is
      unique enough to tell two runs apart in merged ledgers. *)
val create :
  ?capacity_per_track:int -> ?clock:Elastic_sim.Clock.t -> ?trace:int ->
  unit -> t

val clock : t -> Elastic_sim.Clock.t

(** Allocate recorders for tracks [0 .. tracks-1].  Must be called
    before workers start (recorder creation is not thread-safe);
    idempotent, only grows. *)
val prepare : t -> tracks:int -> unit

(** The recorder of one track; {!prepare} must have covered it.
    @raise Invalid_argument otherwise. *)
val track : t -> int -> Recorder.t

val tracks : t -> int

(** All tracks merged, sorted by start time (ties by id). *)
val spans : t -> Span.t list

(** Totals across tracks, including ring-overwritten spans. *)
val recorded : t -> int

val dropped : t -> int

(** [(worker, busy_seconds)] per track: summed {!Span.Shard} span
    durations — the time the worker spent executing shards. *)
val busy_seconds : t -> (int * float) list

(** Per-worker busy fraction of [wall_seconds] (clamped to [0, 1]). *)
val utilization : t -> wall_seconds:float -> (int * float) list

(** Post-run derived gauges into a metrics registry:
    [elastic_obs_worker_utilization{worker=...}],
    [elastic_obs_queue_wait_seconds{worker=...}],
    [elastic_obs_spans_per_second], and the
    [elastic_obs_spans_total] / [elastic_obs_spans_dropped_total]
    counters. *)
val note_gauges :
  t -> wall_seconds:float -> Elastic_metrics.Metrics.t -> unit
