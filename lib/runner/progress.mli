(** The per-shard ledger of a campaign.

    A {!t} is a preallocated array of per-shard slots that executing
    workers update in place as they go (state, attempts, heartbeat
    timestamp, completed samples or failure), read concurrently by the
    telemetry plane ([lib/telemetry]'s [/status] and [/metrics]
    endpoints and the heartbeat watchdog).  It is also the runner's only
    per-shard record: [Runner.run] writes every transition here (into
    the caller's plane, or a private one) and folds its report — shard
    outcomes, merged samples, per-worker accounting — from the slots
    after the workers join.  The report, [/status], [/metrics] and
    [runner status] therefore read one ledger and cannot disagree.

    Writer discipline mirrors the span recorders: every slot has exactly
    {e one} writer at a time — the worker currently executing that shard
    — and writes are plain mutable-field stores with no locks.  Readers
    (the telemetry server thread) may observe a slot mid-update; every
    exported value is independently meaningful, so a torn read degrades
    to a momentarily stale snapshot, never to corruption.

    Heartbeats share the runner's injectable {!Elastic_sim.Clock}: the
    writers store timestamps the caller already read (the attempt's
    start, each deadline check, the completion), so the plane adds no
    clock reads to the shard loop, and the watchdog compares those
    stamps against the same clock — which makes stall detection
    deterministic under [Clock.ticker] in tests. *)

type state =
  | Pending  (** not started *)
  | Running  (** an attempt is executing, or the shard waits to retry *)
  | Completed
  | Failed

type classification =
  | Transient  (** worth retrying: timeouts, kills, unknown exceptions *)
  | Permanent  (** deterministic: same inputs will fail the same way *)

type failure = {
  f_exn : string;  (** [Printexc.to_string] of the last attempt *)
  f_class : classification;
}

(** One shard's record; read-only outside this module. *)
type slot = private {
  mutable s_state : state;
  mutable s_attempts : int;  (** attempts started; 0 when adopted *)
  mutable s_worker : int;  (** the executing worker; -1 before a start *)
  mutable s_timeouts : int;  (** attempts that hit a deadline *)
  mutable s_beat_ns : int64;  (** last heartbeat, [0L] before the first *)
  mutable s_seconds : float;  (** wall seconds of the completing attempt *)
  mutable s_samples : Elastic_metrics.Metrics.sample list;
  mutable s_failure : failure option;  (** [Some] once [Failed] *)
  mutable s_resumed : bool;  (** adopted from a checkpoint *)
}

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

(** Marks the shard [Running], records worker and attempt, and beats
    at [now], the attempt's start. *)
val start_shard :
  t -> shard:int -> worker:int -> attempt:int -> now:int64 -> unit

(** Heartbeat with a timestamp the caller already holds. *)
val beat_at : t -> shard:int -> int64 -> unit

(** Heartbeat reading the progress clock. *)
val beat : t -> shard:int -> unit

(** Counts an attempt that hit a wall-clock deadline. *)
val note_timeout : t -> shard:int -> unit

(** Final states.  [complete] stores the shard's exact sample snapshot
    (merged live by {!merged}) and its attempt wall seconds, and beats
    at [now]; [fail] stores the last attempt's failure. *)
val complete :
  t -> shard:int -> now:int64 -> seconds:float ->
  Elastic_metrics.Metrics.sample list -> unit

val fail : t -> shard:int -> failure -> unit

(** Checkpoint adoption at resume: [Completed] without ever running. *)
val adopt : t -> shard:int -> Elastic_metrics.Metrics.sample list -> unit

(** {1 Reader side} *)

val slot : t -> int -> slot

val counts : t -> counts

(** Attempt starts summed over all shards. *)
val attempts_total : t -> int

(** Shards completed after more than one attempt. *)
val retried : t -> int

(** Shards adopted from a checkpoint. *)
val resumed : t -> int

(** Completed shards' samples folded with [Metrics.merge] in index
    order — the runner's merged result once every shard finished, the
    prefix that exists so far while it runs. *)
val merged : t -> Elastic_metrics.Metrics.sample list

(** Seconds since {!create} on the progress clock. *)
val elapsed_seconds : t -> float

(** Naive completion-rate extrapolation over the remaining shards;
    [None] until a non-adopted shard completes. *)
val eta_seconds : t -> float option

(** Slowest completed shard as [(id, index, seconds, attempts)]; the
    lowest index among equals. *)
val slowest : t -> (string * int * float * int) option
