(** The campaign status document
    (schema ["elastic-speculation/status/v1"]) and the [runner status]
    text.

    One JSON shape serves two sources: the telemetry server's live
    [GET /status] (rendered from a {!Progress} plane mid-campaign) and
    the shell's [runner status --json] (rendered from a {!Checkpoint}
    after the fact).  Both read a plane — a loaded checkpoint becomes
    one, each entry completed with its attempts and seconds — so the
    core fields are computed once, and dashboards and CI validators
    parse both without caring which side produced them:

    - [schema], [source] ("live" | "checkpoint" | "idle"), [campaign];
    - shard counts: [shards], [pending], [running], [completed],
      [failed] — always summing to [shards] — plus [resumed] and
      [retried];
    - [attempts], [elapsed_seconds], [eta_seconds] (null when unknown);
    - watchdog health: [healthy], [stalls];
    - [workers]: per-worker utilization objects (empty without a span
      collector);
    - [slowest]: the slowest completed shard (the lowest index among
      equals), or null. *)

(** Live form.  [None] renders an idle document (zero shards, healthy).
    @param healthy watchdog verdict (default [true]).
    @param stalls watchdog stall count (default [0]).
    @param utilization per-worker busy fractions from
      [Elastic_obs.Collector.utilization]. *)
val of_progress :
  ?healthy:bool ->
  ?stalls:int ->
  ?utilization:(int * float) list ->
  Progress.t option ->
  Elastic_metrics.Json.t

(** Post-hoc form from a checkpoint file.  Only completed shards reach
    a checkpoint, so shards absent from it count as [pending] (the
    resume work list) and [running]/[failed] are zero.  Its own fields:
    [elapsed_seconds] sums the entries' seconds, [truncated] and
    [command] come from the file, and there is no [slowest] shard when
    the entries carry no seconds (a pre-spans checkpoint). *)
val of_checkpoint : Checkpoint.t -> Elastic_metrics.Json.t

(** The same digest as text ([runner status]): shards checkpointed out
    of the total, the truncation flag and resume command, then
    completed / retried / missing counts, total attempts and seconds,
    and the slowest shard. *)
val pp_checkpoint : Format.formatter -> Checkpoint.t -> unit
