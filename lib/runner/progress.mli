(** Live progress plane for a running campaign.

    The runner's {!Runner.report} is post-hoc: nothing is visible until
    every shard finished.  A {!t} is the live counterpart — a
    preallocated array of per-shard slots that executing workers update
    in place as they go (state, attempt count, heartbeat timestamp,
    completed samples), read concurrently by the telemetry plane
    ([lib/telemetry]'s [/status] and [/metrics] endpoints and the
    heartbeat watchdog).

    Writer discipline mirrors the span recorders: every slot has exactly
    {e one} writer at a time — the worker currently executing that shard
    — and writes are plain mutable-field stores with no locks, so the
    runner's hot path pays one array-indexed store per update and
    nothing when no progress plane is attached.  Readers (the telemetry
    server thread) may observe a slot mid-update; every exported value
    is independently meaningful, so a torn read degrades to a
    momentarily stale snapshot, never to corruption.

    Heartbeats share the runner's injectable {!Elastic_sim.Clock}:
    {!beat_at} stores a timestamp the caller already read (the runner
    reuses the reading its deadline check just made, so attaching a
    progress plane adds zero clock reads to the shard loop), and the
    watchdog compares those stamps against the same clock — which makes
    stall detection deterministic under [Clock.ticker] in tests. *)

type state =
  | Pending  (** not started (or retrying after a failed attempt) *)
  | Running
  | Completed
  | Failed

type counts = {
  c_pending : int;
  c_running : int;
  c_completed : int;
  c_failed : int;
}

type t

(** [create ~name ~ids ()] — one slot per shard, all [Pending].
    @param clock shared time source for heartbeats and elapsed time
      (default [Elastic_sim.Clock.monotonic]); the watchdog must use
      the same clock. *)
val create :
  ?clock:Elastic_sim.Clock.t -> name:string -> ids:string array -> unit -> t

val name : t -> string

val shards : t -> int

val clock : t -> Elastic_sim.Clock.t

(** {1 Writer side (the executing worker)} *)

(** Marks the shard [Running], records worker/attempt and beats. *)
val start_shard : t -> shard:int -> worker:int -> attempt:int -> unit

(** Heartbeat with a timestamp the caller already holds. *)
val beat_at : t -> shard:int -> int64 -> unit

(** Heartbeat reading the progress clock. *)
val beat : t -> shard:int -> unit

(** Final states.  [complete] stores the shard's exact sample snapshot
    (merged live by {!merged}) and its attempt wall seconds. *)
val complete :
  t -> shard:int -> seconds:float ->
  Elastic_metrics.Metrics.sample list -> unit

val fail : t -> shard:int -> unit

(** Checkpoint adoption at resume: [Completed] without ever running. *)
val adopt : t -> shard:int -> Elastic_metrics.Metrics.sample list -> unit

(** {1 Reader side (telemetry)} *)

val state : t -> int -> state

(** Last heartbeat, [0L] before the first. *)
val last_beat_ns : t -> int -> int64

val counts : t -> counts

(** Attempt starts summed over all shards. *)
val attempts_total : t -> int

(** Shards completed after more than one attempt. *)
val retried : t -> int

(** Shards adopted from a checkpoint. *)
val resumed : t -> int

(** Completed shards' samples folded with [Metrics.merge] in index
    order — the same merge the final report performs, over the prefix
    that exists right now. *)
val merged : t -> Elastic_metrics.Metrics.sample list

(** Seconds since {!create} on the progress clock. *)
val elapsed_seconds : t -> float

(** Naive completion-rate extrapolation over the remaining shards;
    [None] until a non-adopted shard completes. *)
val eta_seconds : t -> float option

(** Slowest completed shard as [(id, index, seconds, attempts)]. *)
val slowest : t -> (string * int * float * int) option
