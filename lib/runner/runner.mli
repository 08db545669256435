(** Supervised parallel campaign runner.

    Shards a list of independent {!task}s (fault scenarios, sweep
    points, lint corpora) across workers — OCaml 5 domains when the
    compiler has them, a sequential in-process pool otherwise (see
    {!Pool_backend}) — with the supervision tree the paper's campaign
    scale demands:

    - {b crash isolation}: any exception escaping a task marks only
      that shard failed, with the exception text as provenance; sibling
      shards and the run keep going.
    - {b deadlines}: per-shard and per-campaign wall-clock budgets
      (cycle budgets live in the engine as [max_cycles] / typed E110).
    - {b retry}: transiently-failed shards retry in-worker with seeded
      exponential {!Backoff}; deterministic failures ([Simulation_error],
      [Diagnostic.Reject], ...) are classified {!Permanent} and never
      retried.
    - {b checkpoint/resume}: completed shards append their exact sample
      snapshot to a {!Checkpoint} file; a resumed run adopts matching
      entries and recomputes nothing.

    Determinism contract: shards merge in {e index} order, so for
    deadline-free workloads the merged snapshot is byte-identical
    across worker counts, interruptions and resumes — the crash-recovery
    equivalence suite asserts exactly this. *)

exception Deadline_exceeded of string

(** Raised by fault-injection hooks in tests/chaos runs to simulate a
    worker being killed mid-shard. *)
exception Killed of string

(** Passed to the task body. *)
type ctx = {
  shard_id : string;
  shard_index : int;
  attempt : int;  (** 1-based *)
  check_deadline : unit -> unit;
      (** call between units of work; raises {!Deadline_exceeded} when
          the shard or campaign wall-clock budget is exhausted *)
  obs : (Elastic_obs.Recorder.t * int) option;
      (** when span collection is on ([run ~obs]): the executing
          worker's recorder and the id of the enclosing attempt span,
          so the task body can record child phase spans (compile,
          settle, ...) under the attempt *)
}

type task = {
  id : string;  (** unique; the checkpoint resume key *)
  work : ctx -> Elastic_metrics.Metrics.sample list;
}

type classification = Progress.classification =
  | Transient  (** worth retrying: timeouts, kills, unknown exceptions *)
  | Permanent  (** deterministic: same inputs will fail the same way *)

type failure = Progress.failure = {
  f_exn : string;  (** [Printexc.to_string] of the last attempt *)
  f_class : classification;
}

type status =
  | Completed of Elastic_metrics.Metrics.sample list
  | Failed of failure
  | Not_run  (** campaign deadline / stop signal hit first *)

type shard = {
  sh_id : string;
  sh_index : int;
  sh_status : status;
  sh_attempts : int;  (** 0 when [Not_run] or resumed *)
  sh_worker : int;  (** finishing worker; -1 when not executed here *)
  sh_resumed : bool;  (** adopted from a checkpoint *)
}

type worker_stats = {
  w_tasks : int;  (** attempts started *)
  w_completed : int;
  w_retries : int;
  w_timeouts : int;  (** {!Deadline_exceeded} observations *)
}

type report = {
  r_name : string;
  r_shards : shard list;  (** in index order, one per input task *)
  r_merged : Elastic_metrics.Metrics.sample list;
      (** completed shards folded with [Metrics.merge] in index order *)
  r_completed : int;
  r_failed : int;
  r_not_run : int;
  r_resumed : int;
  r_workers : worker_stats array;
  r_stopped : bool;  (** cut short by [stop_after] or campaign deadline *)
}

(** [run ~name tasks] executes every task and never raises on task
    failure.

    Workers take shards from one shared queue in index order.  Every
    per-shard transition is written to a {!Progress} plane, and the
    report is folded from that plane after the workers join: [run]
    keeps no other per-shard or per-worker record.

    @param workers pool size (default [Pool_backend.recommended ()]).
    @param max_attempts per shard, >= 1 (default 3); a retry waits
      as {!Backoff.default} says.
    @param seed drives backoff jitter only (default 2009).
    @param classify failure triage (default: [Simulation_error],
      [Diagnostic.Reject], [Invalid_argument], [Failure] and
      [Assert_failure] are {!Permanent}; {!Deadline_exceeded},
      {!Killed} and anything else {!Transient}).
    @param shard_deadline wall seconds per {e attempt}.
    @param campaign_deadline wall seconds for the whole run; shards not
      started in time report [Not_run].
    @param clock injectable time source (default [Clock.monotonic]),
      read at each attempt's start and end, at each
      [ctx.check_deadline], and at each dispatch only when there is a
      campaign deadline.
    @param sleep injectable backoff sleep (default [Unix.sleepf]).
    @param checkpoint path to write JSONL checkpoints to.
    @param resume adopt [Completed] entries by task id from a loaded
      checkpoint; carried forward into the new checkpoint file.
    @param command stored in the checkpoint header for [runner resume].
    @param stop_after simulate a kill: stop dispatching after this many
      locally-completed shards (deterministic on 1 worker).
    @param registry post-run runner-health metrics
      ([elastic_runner_tasks_total{worker=...}] etc.); with [obs] also
      the derived scheduling gauges
      ([elastic_obs_worker_utilization{worker=...}], queue wait,
      spans/sec).
    @param obs span ledger: one single-writer recorder per worker is
      prepared in the collector, and the run records the
      [campaign -> shard -> attempt -> {checkpoint-write,
      backoff-sleep}] hierarchy (worker id, shard index, retry counts,
      failure classification, deadline margins as attributes);
      task bodies add compile/settle phase spans through [ctx.obs].
      Off by default and adds nothing to the hot paths when absent.
    @param progress the ledger to write into (see {!Progress}), so the
      telemetry server can read it while the run goes on; a fresh
      private plane on the runner's clock when absent.  Workers record
      attempt starts, every [ctx.check_deadline] call (reusing the
      clock reading the deadline check already made), timeouts,
      completions and failures; checkpoint-adopted shards appear
      [Completed] before the workers start.  The plane adds no clock
      reads: it stores the readings the runner makes anyway.
    @raise Invalid_argument on non-positive [workers]/[max_attempts],
      duplicate task ids, or a [progress] plane sized for a different
      shard count or already written to. *)
val run :
  ?workers:int ->
  ?max_attempts:int ->
  ?seed:int ->
  ?classify:(exn -> classification) ->
  ?shard_deadline:float ->
  ?campaign_deadline:float ->
  ?clock:Elastic_sim.Clock.t ->
  ?sleep:(float -> unit) ->
  ?checkpoint:string ->
  ?resume:Checkpoint.t ->
  ?command:string ->
  ?stop_after:int ->
  ?registry:Elastic_metrics.Metrics.t ->
  ?obs:Elastic_obs.Collector.t ->
  ?progress:Progress.t ->
  name:string ->
  task list ->
  report

(** Completeness report: shard totals, failures with provenance,
    worker/retry accounting. *)
val pp_report : Format.formatter -> report -> unit

val report_json : report -> Elastic_metrics.Json.t
