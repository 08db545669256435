(** Campaign-to-task adapters for the {!Runner}.

    {!Elastic_fault.Campaign.run} checks scenarios one after another in
    one process; [of_campaign] turns the same scenario list into one
    {!Runner.task} per scenario so the runner can shard it.  The tasks
    share one {!Elastic_fault.Recovery.golden_run} of the (immutable)
    netlist: the first task to run builds it under a
    {!Pool_backend} lock and every other worker reads it; a build that
    raises is not cached, so each task reports the failure itself, and
    a campaign that runs no task (fully resumed from a checkpoint) never
    builds it.  The tasks also share a pool of faulted engines
    ({!Elastic_fault.Recovery.faulted_engine}): a task takes a free one,
    or compiles one when none is free, and returns it after its scenario,
    so a campaign on [w] workers compiles at most [w] (a task that raises
    drops its engine).  With spans on, a task's compile span has the
    engine's compile time when it compiled one and zero length when it
    reused one.  Each task runs {!Elastic_fault.Recovery.check} on its
    engine against that golden run and returns a fresh registry snapshot — counters for
    scenarios, injections and per-class recovery outcomes, plus a
    correction-penalty histogram and a stabilization histogram
    ([elastic_fault_stabilization_cycles], labelled by the lag, of the
    scenarios cut off once they rejoined the golden trajectory; see
    [Recovery.report.stabilized]) — so the runner's index-order merge
    reproduces the sequential campaign's histogram exactly, at any
    worker count. *)

(** [of_campaign ~name net ~scenarios] — task ids are
    ["<name>/<index>"] (stable across runs: the checkpoint resume key).
    [cycles], [settle] and [alarms] go to the shared golden run
    ({!Elastic_fault.Recovery.golden_run}).
    The task body calls [ctx.check_deadline] before
    each check, so shard/campaign wall-clock budgets land between
    simulations, never mid-cycle. *)
val of_campaign :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:
    (Elastic_netlist.Netlist.node_id * (Elastic_kernel.Value.t -> bool))
      list ->
  name:string ->
  Elastic_netlist.Netlist.t ->
  scenarios:Elastic_fault.Fault.t list list ->
  Runner.task list

(** Rebuild a {!Elastic_fault.Campaign.summary}-style histogram
    (classification label -> count, sorted by label) from merged runner
    samples — the equivalence suite compares this against the
    sequential campaign's histogram. *)
val classification_histogram :
  Elastic_metrics.Metrics.sample list -> (string * int) list
