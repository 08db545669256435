open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_fault
open Elastic_metrics
open Elastic_runner

(* The supervised campaign runner (lib/runner): seeded backoff,
   checkpoint round-trips and corruption handling, crash isolation,
   retry classification, wall-clock deadlines, kill/resume, and the
   crash-recovery equivalence property — interrupted + resumed runs
   merge byte-identically to an uninterrupted sequential run. *)

(* No test below actually sleeps: every Runner.run call injects a
   recording stub. *)
let no_sleep = ref []

let sleep_stub d = no_sleep := d :: !no_sleep

(* --- backoff ------------------------------------------------------- *)

let test_backoff_deterministic () =
  let p = Backoff.default in
  let seq seed =
    let rng = Rng.create ~seed in
    List.init 6 (fun i -> Backoff.delay p ~rng ~attempt:(i + 1))
  in
  Alcotest.(check bool) "same seed, same schedule" true (seq 7 = seq 7);
  Alcotest.(check bool) "all non-negative" true
    (List.for_all (fun d -> d >= 0.0) (seq 13))

let test_backoff_growth_and_cap () =
  let p = Backoff.v ~base:0.1 ~factor:2.0 ~max_delay:0.5 ~jitter_pct:0 in
  let rng = Rng.create ~seed:1 in
  let d k = Backoff.delay p ~rng ~attempt:k in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.1 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.2 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.4 (d 3);
  Alcotest.(check (float 1e-9)) "attempt 4 capped" 0.5 (d 4);
  Alcotest.(check (float 1e-9)) "attempt 10 capped" 0.5 (d 10)

let test_backoff_jitter_bounded () =
  let p = Backoff.v ~base:1.0 ~factor:1.0 ~max_delay:1.0 ~jitter_pct:25 in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let d = Backoff.delay p ~rng ~attempt:1 in
    if d < 0.75 -. 1e-9 || d > 1.25 +. 1e-9 then
      Alcotest.failf "jittered delay %g outside [0.75, 1.25]" d
  done

let test_backoff_validation () =
  Alcotest.check_raises "base" (Invalid_argument "Backoff.v: base must be positive")
    (fun () ->
       ignore (Backoff.v ~base:0.0 ~factor:2.0 ~max_delay:1.0 ~jitter_pct:0));
  Alcotest.check_raises "jitter"
    (Invalid_argument "Backoff.v: jitter_pct outside [0, 100]") (fun () ->
        ignore (Backoff.v ~base:0.1 ~factor:2.0 ~max_delay:1.0 ~jitter_pct:101))

(* --- checkpoint files ---------------------------------------------- *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "elastic_runner_test_%d_%s" (Unix.getpid ()) name)

let sample_fixture () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg "a_total") 3;
  Metrics.Gauge.set (Metrics.gauge reg "g") 0.1;
  let h = Metrics.histogram reg ~labels:[ ("k", "v") ] "h" in
  List.iter (Histogram.observe h) [ 1; 2; 300 ];
  Metrics.snapshot reg

let test_checkpoint_roundtrip () =
  let path = tmp_path "roundtrip.jsonl" in
  let header =
    { Checkpoint.campaign = "camp"; command = Some "campaign flips";
      shards = 4; seed = 9 }
  in
  let e i =
    { Checkpoint.e_id = Fmt.str "camp/%04d" i; e_index = i; e_attempts = 1;
      e_seconds = 0.25; e_samples = sample_fixture () }
  in
  Checkpoint.write ~path header [ e 0 ];
  Checkpoint.append ~path (e 2);
  (match Checkpoint.load path with
   | Error msg -> Alcotest.failf "load: %s" msg
   | Ok cp ->
     Alcotest.(check bool) "header" true (cp.Checkpoint.header = header);
     Alcotest.(check int) "entries" 2 (List.length cp.Checkpoint.entries);
     Alcotest.(check bool) "not truncated" false cp.Checkpoint.truncated;
     let loaded = (List.nth cp.Checkpoint.entries 1).Checkpoint.e_samples in
     Alcotest.(check bool) "samples bit-identical" true
       (loaded = sample_fixture ());
     Alcotest.(check string) "prometheus render identical"
       (Prometheus.render (sample_fixture ()))
       (Prometheus.render loaded));
  Sys.remove path

let test_checkpoint_truncated_tail () =
  let path = tmp_path "truncated.jsonl" in
  let header =
    { Checkpoint.campaign = "camp"; command = None; shards = 3; seed = 1 }
  in
  let e =
    { Checkpoint.e_id = "camp/0000"; e_index = 0; e_attempts = 2;
      e_seconds = 0.5; e_samples = sample_fixture () }
  in
  Checkpoint.write ~path header [ e ];
  (* Simulate a kill mid-append: a partial line with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"shard\":\"camp/0001\",\"index\":1,\"atte";
  close_out oc;
  (match Checkpoint.load path with
   | Error msg -> Alcotest.failf "load: %s" msg
   | Ok cp ->
     Alcotest.(check int) "kept the complete entry" 1
       (List.length cp.Checkpoint.entries);
     Alcotest.(check bool) "flagged truncated" true cp.Checkpoint.truncated);
  Sys.remove path

let test_checkpoint_corrupt_interior () =
  let path = tmp_path "corrupt.jsonl" in
  let header =
    { Checkpoint.campaign = "camp"; command = None; shards = 3; seed = 1 }
  in
  Checkpoint.write ~path header [];
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"shard\": 42}\n";  (* complete but malformed line *)
  output_string oc "also not json\n";
  close_out oc;
  (match Checkpoint.load path with
   | Ok _ -> Alcotest.fail "corrupt interior line must not load"
   | Error msg ->
     Alcotest.(check bool) "names the line" true
       (Helpers.contains msg "line 2"));
  Sys.remove path

let test_checkpoint_bad_schema () =
  let path = tmp_path "schema.jsonl" in
  let oc = open_out path in
  output_string oc "{\"schema\":\"other/v9\"}\n";
  close_out oc;
  (match Checkpoint.load path with
   | Ok _ -> Alcotest.fail "foreign schema must not load"
   | Error msg ->
     Alcotest.(check bool) "names the schema" true
       (Helpers.contains msg "other/v9"));
  Sys.remove path;
  match Checkpoint.load (tmp_path "does_not_exist.jsonl") with
  | Ok _ -> Alcotest.fail "missing file must not load"
  | Error _ -> ()

(* --- runner: supervision basics ------------------------------------ *)

let counting_task ?(fail_attempts = 0) ?(exn = Runner.Killed "chaos") id v =
  let seen = ref 0 in
  { Runner.id;
    work =
      (fun (ctx : Runner.ctx) ->
         ignore ctx;
         incr seen;
         if !seen <= fail_attempts then raise exn;
         let reg = Metrics.create () in
         Metrics.Counter.add (Metrics.counter reg "work_total") v;
         Metrics.snapshot reg) }

let completed_ids r =
  List.filter_map
    (fun (sh : Runner.shard) ->
       match sh.Runner.sh_status with
       | Runner.Completed _ -> Some sh.Runner.sh_id
       | _ -> None)
    r.Runner.r_shards

let work_total r =
  match Metrics.find r.Runner.r_merged "work_total" with
  | Some (Metrics.Counter c) -> c
  | _ -> Alcotest.fail "work_total missing from merged snapshot"

let test_runner_completes_and_merges () =
  let tasks = List.init 5 (fun i -> counting_task (Fmt.str "t%d" i) (i + 1)) in
  let r = Runner.run ~workers:1 ~sleep:sleep_stub ~name:"basic" tasks in
  Alcotest.(check int) "completed" 5 r.Runner.r_completed;
  Alcotest.(check int) "failed" 0 r.Runner.r_failed;
  Alcotest.(check int) "merged counter adds" 15 (work_total r);
  Alcotest.(check bool) "not stopped" false r.Runner.r_stopped

let test_runner_crash_isolation () =
  let boom =
    { Runner.id = "boom";
      work = (fun _ -> failwith "deterministic crash") }
  in
  let tasks =
    [ counting_task "a" 1; boom; counting_task "b" 2 ]
  in
  let r = Runner.run ~workers:1 ~sleep:sleep_stub ~name:"iso" tasks in
  Alcotest.(check int) "siblings completed" 2 r.Runner.r_completed;
  Alcotest.(check int) "one failed" 1 r.Runner.r_failed;
  Alcotest.(check (list string)) "the right ones" [ "a"; "b" ]
    (completed_ids r);
  match
    List.find (fun (sh : Runner.shard) -> sh.Runner.sh_id = "boom")
      r.Runner.r_shards
  with
  | { sh_status = Runner.Failed f; sh_attempts; _ } ->
    Alcotest.(check bool) "permanent" true (f.f_class = Runner.Permanent);
    Alcotest.(check int) "no retries for deterministic failures" 1
      sh_attempts;
    Alcotest.(check bool) "provenance" true
      (Helpers.contains f.f_exn "deterministic crash")
  | _ -> Alcotest.fail "boom shard not Failed"

let test_runner_transient_retry () =
  (* Fails twice with Killed (transient), succeeds on attempt 3. *)
  no_sleep := [];
  let tasks = [ counting_task ~fail_attempts:2 "flaky" 7 ] in
  let r =
    Runner.run ~workers:1 ~max_attempts:3 ~sleep:sleep_stub ~name:"retry"
      tasks
  in
  Alcotest.(check int) "completed after retries" 1 r.Runner.r_completed;
  Alcotest.(check int) "merged value intact" 7 (work_total r);
  (match r.Runner.r_shards with
   | [ sh ] -> Alcotest.(check int) "attempts" 3 sh.Runner.sh_attempts
   | _ -> Alcotest.fail "one shard expected");
  Alcotest.(check int) "retries counted" 2 r.Runner.r_workers.(0).w_retries;
  Alcotest.(check int) "backed off twice" 2 (List.length !no_sleep)

let test_runner_retry_exhaustion () =
  let tasks = [ counting_task ~fail_attempts:99 "dead" 1 ] in
  let r =
    Runner.run ~workers:1 ~max_attempts:3 ~sleep:sleep_stub ~name:"exh"
      tasks
  in
  Alcotest.(check int) "failed" 1 r.Runner.r_failed;
  match r.Runner.r_shards with
  | [ { sh_status = Runner.Failed f; sh_attempts; _ } ] ->
    Alcotest.(check int) "attempts bounded" 3 sh_attempts;
    Alcotest.(check bool) "classified transient" true
      (f.f_class = Runner.Transient)
  | _ -> Alcotest.fail "shard not Failed"

let test_runner_classify_override () =
  let tasks = [ counting_task ~fail_attempts:99 ~exn:Exit "x" 1 ] in
  let classify = function Exit -> Runner.Permanent | _ -> Runner.Transient in
  let r =
    Runner.run ~workers:1 ~max_attempts:5 ~classify ~sleep:sleep_stub
      ~name:"cls" tasks
  in
  match r.Runner.r_shards with
  | [ { sh_attempts = 1; sh_status = Runner.Failed _; _ } ] -> ()
  | _ -> Alcotest.fail "override must stop retries"

let test_runner_shard_deadline () =
  (* Every clock reading advances 1 ms; a 1 us shard budget trips the
     first check_deadline of every attempt. *)
  let clock = Clock.ticker ~step_ns:1_000_000L in
  let hungry =
    { Runner.id = "hungry";
      work = (fun ctx -> ctx.Runner.check_deadline (); Alcotest.fail
                 "deadline should have fired") }
  in
  let r =
    Runner.run ~workers:1 ~max_attempts:2 ~clock ~shard_deadline:1e-6
      ~sleep:sleep_stub ~name:"dl" [ hungry ]
  in
  Alcotest.(check int) "failed" 1 r.Runner.r_failed;
  Alcotest.(check int) "timeouts observed" 2 r.Runner.r_workers.(0).w_timeouts;
  match r.Runner.r_shards with
  | [ { sh_status = Runner.Failed f; _ } ] ->
    Alcotest.(check bool) "transient (worth retrying elsewhere)" true
      (f.f_class = Runner.Transient);
    Alcotest.(check bool) "names the budget" true
      (Helpers.contains f.f_exn "wall-clock budget")
  | _ -> Alcotest.fail "shard not Failed"

let test_runner_campaign_deadline () =
  (* Campaign budget of 3.5 ms with a 1 ms-per-reading clock: the take
     loop burns one reading per dispatch, so later shards never start. *)
  let clock = Clock.ticker ~step_ns:1_000_000L in
  let tasks = List.init 8 (fun i -> counting_task (Fmt.str "t%d" i) 1) in
  let r =
    Runner.run ~workers:1 ~clock ~campaign_deadline:0.0035
      ~sleep:sleep_stub ~name:"cdl" tasks
  in
  Alcotest.(check bool) "stopped early" true r.Runner.r_stopped;
  Alcotest.(check bool) "some shards not run" true (r.Runner.r_not_run > 0);
  Alcotest.(check int) "accounted" 8
    (r.Runner.r_completed + r.Runner.r_failed + r.Runner.r_not_run)

(* A campaign that ends before its deadline is not "stopped early":
   once every shard is taken, the last [take] must not read the clock
   and then stop the campaign.  Two trivial shards on one worker, a
   1 ms-per-reading clock and deadlines that expire only after the
   second shard completed. *)
let test_runner_finished_not_stopped () =
  List.iter
    (fun deadline ->
       let clock = Clock.ticker ~step_ns:1_000_000L in
       let tasks = List.init 2 (fun i -> counting_task (Fmt.str "t%d" i) 1) in
       let r =
         Runner.run ~workers:1 ~clock ~campaign_deadline:deadline
           ~sleep:sleep_stub ~name:"fin" tasks
       in
       let what = Fmt.str "deadline %gs" deadline in
       Alcotest.(check int) (what ^ ": completed") 2 r.Runner.r_completed;
       Alcotest.(check int) (what ^ ": not run") 0 r.Runner.r_not_run;
       Alcotest.(check bool) (what ^ ": not stopped") false r.Runner.r_stopped;
       Alcotest.(check bool) (what ^ ": report") false
         (Helpers.contains (Fmt.str "%a" Runner.pp_report r) "stopped early"))
    [ 0.0045; 0.0055; 0.0065 ]

(* The runner reads the clock at an attempt's start and end and nowhere
   else on a deadline-free run without spans: at most 2k + 1 readings
   for k trivial shards. *)
let test_runner_clock_reads () =
  List.iter
    (fun k ->
       let reads = ref 0 in
       let clock () =
         incr reads;
         Int64.of_int (!reads * 1000)
       in
       let tasks = List.init k (fun i -> counting_task (Fmt.str "t%d" i) 1) in
       let r =
         Runner.run ~workers:1 ~clock ~sleep:sleep_stub ~name:"reads" tasks
       in
       Alcotest.(check int) (Fmt.str "k=%d: completed" k) k r.Runner.r_completed;
       if !reads > (2 * k) + 1 then
         Alcotest.failf "%d shards read the clock %d times (at most %d)" k
           !reads ((2 * k) + 1))
    [ 1; 10; 100 ]

(* The runner's own cost per shard: 20 000 tasks that return one shared
   empty snapshot, measured after a warm-up run.  The count repeats
   exactly; the budget is the measured 95 words plus ~5%.  It covers
   the plane's slot, the attempt's closures and context, the clock
   readings and the report's shard record. *)
let test_runner_words_per_shard () =
  let empty = Metrics.snapshot (Metrics.create ()) in
  let n = 20_000 in
  let tasks =
    List.init n (fun i ->
        { Runner.id = Fmt.str "w/%05d" i; work = (fun _ -> empty) })
  in
  let run () =
    ignore (Runner.run ~workers:1 ~sleep:sleep_stub ~name:"words" tasks)
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  let per = (w1 -. w0) /. float_of_int n in
  if per > 100. then
    Alcotest.failf "Runner.run allocates %.1f words per shard (budget 100)"
      per

let test_runner_duplicate_ids () =
  Alcotest.check_raises "duplicate ids rejected"
    (Invalid_argument "Runner.run: duplicate task id \"dup\"") (fun () ->
        ignore
          (Runner.run ~workers:1 ~sleep:sleep_stub ~name:"dup"
             [ counting_task "dup" 1; counting_task "dup" 2 ]))

(* --- checkpoint / resume ------------------------------------------- *)

let test_runner_stop_and_resume () =
  let path = tmp_path "resume.jsonl" in
  let mk () = List.init 6 (fun i -> counting_task (Fmt.str "t%d" i) (i + 1)) in
  let full =
    Runner.run ~workers:1 ~sleep:sleep_stub ~name:"res" (mk ())
  in
  (* Kill after 2 completions, checkpointing as we go. *)
  let killed =
    Runner.run ~workers:1 ~sleep:sleep_stub ~checkpoint:path ~stop_after:2
      ~command:"campaign flips --par 1" ~name:"res" (mk ())
  in
  Alcotest.(check bool) "stopped" true killed.Runner.r_stopped;
  Alcotest.(check int) "partial completions" 2 killed.Runner.r_completed;
  Alcotest.(check int) "rest not run" 4 killed.Runner.r_not_run;
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error m -> Alcotest.failf "checkpoint load: %s" m
  in
  Alcotest.(check int) "checkpointed shards" 2
    (List.length cp.Checkpoint.entries);
  Alcotest.(check (option string)) "resume command stored"
    (Some "campaign flips --par 1") cp.Checkpoint.header.Checkpoint.command;
  (* Resume: adopts the 2 checkpointed shards, computes only the rest. *)
  let resumed =
    Runner.run ~workers:1 ~sleep:sleep_stub ~checkpoint:path ~resume:cp
      ~name:"res" (mk ())
  in
  Alcotest.(check int) "all completed" 6 resumed.Runner.r_completed;
  Alcotest.(check int) "adopted shards" 2 resumed.Runner.r_resumed;
  let recomputed =
    List.filter (fun (sh : Runner.shard) -> sh.Runner.sh_attempts > 0)
      resumed.Runner.r_shards
  in
  Alcotest.(check int) "only 4 recomputed" 4 (List.length recomputed);
  (* The headline equivalence: identical merged snapshot, byte-identical
     rendering. *)
  Alcotest.(check bool) "merged snapshot identical" true
    (resumed.Runner.r_merged = full.Runner.r_merged);
  Alcotest.(check string) "prometheus bytes identical"
    (Prometheus.render full.Runner.r_merged)
    (Prometheus.render resumed.Runner.r_merged);
  (* The rewritten checkpoint carries the adopted entries forward. *)
  (match Checkpoint.load path with
   | Ok cp2 ->
     Alcotest.(check int) "final checkpoint complete" 6
       (List.length cp2.Checkpoint.entries)
   | Error m -> Alcotest.failf "reload: %s" m);
  Sys.remove path

let test_runner_health_metrics () =
  let reg = Metrics.create () in
  let tasks = [ counting_task ~fail_attempts:1 "t0" 1; counting_task "t1" 1 ] in
  let _ =
    Runner.run ~workers:1 ~registry:reg ~sleep:sleep_stub ~name:"health"
      tasks
  in
  let samples = Metrics.snapshot reg in
  (match Metrics.find ~labels:[ ("worker", "0") ] samples
           "elastic_runner_tasks_total"
   with
   | Some (Metrics.Counter c) -> Alcotest.(check int) "attempts" 3 c
   | _ -> Alcotest.fail "tasks_total missing");
  match Metrics.find ~labels:[ ("worker", "0") ] samples
          "elastic_runner_retries_total"
  with
  | Some (Metrics.Counter c) -> Alcotest.(check int) "retries" 1 c
  | _ -> Alcotest.fail "retries_total missing"

(* --- campaign workload: equivalence with the sequential runner ------ *)

(* The library's SECDED campaign on a short error-free workload. *)
let secded () =
  Examples.secded_campaign ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:11 40)

let campaign_fixture ~seed ~count =
  let c = secded () in
  let net = c.Examples.sc_net in
  let scenarios =
    Campaign.random_bitflips ~net ~channel:c.Examples.sc_bus ~seed ~count
      ~from_cycle:2 ~to_cycle:40 ~bit_hi:144 ()
  in
  (net, c.Examples.sc_alarms, scenarios)

let test_workload_matches_sequential_campaign () =
  let net, alarms, scenarios = campaign_fixture ~seed:42 ~count:10 in
  let seq = Campaign.run ~cycles:90 net ~alarms ~scenarios in
  let tasks =
    Workload.of_campaign ~cycles:90 ~alarms ~name:"secded" net ~scenarios
  in
  let r = Runner.run ~workers:1 ~sleep:sleep_stub ~name:"secded" tasks in
  Alcotest.(check int) "all shards completed" 10 r.Runner.r_completed;
  Alcotest.(check bool) "histograms agree" true
    (Workload.classification_histogram r.Runner.r_merged
     = seq.Campaign.histogram)

(* The campaign's Prometheus page as a sequential [Campaign.run] sees
   it, from a single registry in scenario order. *)
let sequential_prometheus (s : Campaign.summary) =
  let reg = Metrics.create () in
  List.iter
    (fun (o : Campaign.outcome) ->
       Metrics.Counter.inc
         (Metrics.counter reg ~help:"fault scenarios checked"
            "elastic_fault_scenarios_total");
       Metrics.Counter.add
         (Metrics.counter reg ~help:"faults injected across scenarios"
            "elastic_fault_injections_total")
         (List.length o.Campaign.faults);
       let cls = o.Campaign.report.Recovery.classification in
       Sampler.note_recovery reg cls;
       (match cls with
        | Recovery.Corrected penalty ->
          Histogram.observe
            (Metrics.histogram reg
               ~help:"extra delay of corrected scenarios, cycles"
               "elastic_fault_recovery_penalty_cycles")
            penalty
        | _ -> ());
       match o.Campaign.report.Recovery.stabilized with
       | Some (cycles, lag) ->
         Histogram.observe
           (Metrics.histogram reg
              ~help:
                "cycles from the last fault window until the faulted run \
                 rejoins the golden trajectory, by lag"
              ~labels:[ ("lag", string_of_int lag) ]
              "elastic_fault_stabilization_cycles")
           cycles
       | None -> ())
    s.Campaign.outcomes;
  Prometheus.render (Metrics.snapshot reg)

(* Every worker count reads the one golden run that the first task
   builds under the lock (real domains on OCaml 5, the sequential
   fallback on 4.14) and must merge to the sequential campaign's page. *)
let test_workload_width_determinism () =
  let c = secded () in
  let net = c.Examples.sc_net and alarms = c.Examples.sc_alarms in
  let ch = c.Examples.sc_bus in
  let scenarios =
    Campaign.random_bitflips ~net ~channel:ch ~seed:5 ~count:12
      ~from_cycle:2 ~to_cycle:40 ~bit_hi:144 ()
    @ Campaign.random_double_flips ~net ~channel:ch ~seed:5 ~count:4
        ~from_cycle:2 ~to_cycle:40 ~bit_lo:0 ~bit_hi:72 ()
    @ [ Fault.control_glitch ~channel:ch ~cycle:20 ]
  in
  let expected =
    sequential_prometheus (Campaign.run ~cycles:90 net ~alarms ~scenarios)
  in
  List.iter
    (fun workers ->
       let tasks =
         Workload.of_campaign ~cycles:90 ~alarms ~name:"width" net ~scenarios
       in
       let r = Runner.run ~workers ~sleep:sleep_stub ~name:"width" tasks in
       Alcotest.(check int)
         (Fmt.str "%d workers: all completed" workers)
         (List.length scenarios) r.Runner.r_completed;
       Alcotest.(check string)
         (Fmt.str "%d workers: prometheus bytes" workers)
         expected
         (Prometheus.render r.Runner.r_merged))
    [ 1; 2; 4 ]

(* The tasks share a pool of faulted engines: a campaign on [w] workers
   compiles at most [w] of them.  A task that compiled its engine emits
   a compile span as long as the compile, one that reused an engine a
   zero-length one; every task emits one. *)
let test_workload_engine_reuse () =
  let net, alarms, scenarios = campaign_fixture ~seed:7 ~count:24 in
  let expected =
    sequential_prometheus (Campaign.run ~cycles:90 net ~alarms ~scenarios)
  in
  List.iter
    (fun workers ->
       let obs = Elastic_obs.Collector.create () in
       let tasks =
         Workload.of_campaign ~cycles:90 ~alarms ~name:"reuse" net ~scenarios
       in
       let r =
         Runner.run ~workers ~sleep:sleep_stub ~obs ~name:"reuse" tasks
       in
       let compiles =
         List.filter
           (fun s -> s.Elastic_obs.Span.sp_kind = Elastic_obs.Span.Compile)
           (Elastic_obs.Collector.spans obs)
       in
       let compiled =
         List.length
           (List.filter
              (fun s -> Int64.compare (Elastic_obs.Span.duration_ns s) 0L > 0)
              compiles)
       in
       Alcotest.(check int)
         (Fmt.str "%d workers: a compile span per scenario" workers)
         24 (List.length compiles);
       Alcotest.(check bool)
         (Fmt.str "%d workers: %d engines compiled, at most %d" workers
            compiled workers)
         true
         (compiled >= 1 && compiled <= workers);
       Alcotest.(check string)
         (Fmt.str "%d workers: prometheus bytes" workers)
         expected
         (Prometheus.render r.Runner.r_merged))
    [ 1; 2; 4 ]

(* A golden run that cannot be built is not cached: every task raises
   what a direct [Recovery.check] raises. *)
let test_workload_golden_failure () =
  let net, _ = Netlist.add_node Netlist.empty (Netlist.Sink Netlist.Always_ready) in
  let faults = [ Fault.drop_token ~channel:0 ~cycle:1 ] in
  let direct =
    match Recovery.check (Recovery.golden_run net) ~faults with
    | _ -> Alcotest.fail "an unconnected sink should not simulate"
    | exception e -> Printexc.to_string e
  in
  let tasks =
    Workload.of_campaign ~name:"bad" net ~scenarios:[ faults; faults; faults ]
  in
  let r = Runner.run ~workers:2 ~sleep:sleep_stub ~name:"bad" tasks in
  Alcotest.(check int) "every shard failed" 3 r.Runner.r_failed;
  List.iter
    (fun (sh : Runner.shard) ->
       match sh.Runner.sh_status with
       | Runner.Failed f ->
         Alcotest.(check string) (sh.Runner.sh_id ^ " error") direct f.Runner.f_exn;
         Alcotest.(check int) (sh.Runner.sh_id ^ " attempts") 1
           sh.Runner.sh_attempts
       | _ -> Alcotest.failf "%s did not fail" sh.Runner.sh_id)
    r.Runner.r_shards

let qcheck_equivalence =
  QCheck.Test.make ~count:6
    ~name:"chaos: kill + resume == uninterrupted, at any worker count"
    QCheck.(triple (int_bound 999) (int_bound 2) (int_bound 6))
    (fun (seed, wexp, kill_at) ->
       let workers = 1 lsl wexp in
       let net, alarms, scenarios =
         campaign_fixture ~seed:(seed + 1) ~count:8
       in
       let tasks () =
         Workload.of_campaign ~cycles:90 ~alarms ~name:"eq" net ~scenarios
       in
       let full =
         Runner.run ~workers:1 ~sleep:sleep_stub ~name:"eq" (tasks ())
       in
       let path =
         tmp_path (Fmt.str "eq_%d_%d_%d.jsonl" seed workers kill_at)
       in
       (* Interrupted run: killed after [kill_at + 1] completions... *)
       let _killed =
         Runner.run ~workers ~sleep:sleep_stub ~checkpoint:path
           ~stop_after:(kill_at + 1) ~name:"eq" (tasks ())
       in
       let cp =
         match Checkpoint.load path with
         | Ok cp -> cp
         | Error m -> QCheck.Test.fail_reportf "checkpoint: %s" m
       in
       (* ... then resumed at a (possibly different) worker count. *)
       let resumed =
         Runner.run ~workers:(max 1 (workers / 2)) ~sleep:sleep_stub
           ~resume:cp ~name:"eq" (tasks ())
       in
       Sys.remove path;
       resumed.Runner.r_completed = 8
       && resumed.Runner.r_merged = full.Runner.r_merged
       && String.equal
            (Prometheus.render full.Runner.r_merged)
            (Prometheus.render resumed.Runner.r_merged)
       && Workload.classification_histogram resumed.Runner.r_merged
          = Workload.classification_histogram full.Runner.r_merged)

(* --- engine cycle budgets (E110) ----------------------------------- *)

let test_engine_max_cycles () =
  let net = (secded ()).Examples.sc_net in
  let eng = Engine.create ~max_cycles:5 net in
  for _ = 1 to 5 do
    ignore (Engine.step eng)
  done;
  (match Engine.step eng with
   | _ -> Alcotest.fail "cycle budget should have fired"
   | exception Engine.Simulation_error e ->
     Alcotest.(check (option string)) "typed code" (Some "E110")
       e.Engine.err_code;
     Alcotest.(check int) "at the budget" 5 e.Engine.err_cycle;
     Alcotest.(check bool) "message names max_cycles" true
       (Helpers.contains e.Engine.err_msg "max_cycles"));
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Engine.create: negative max_cycles") (fun () ->
        ignore (Engine.create ~max_cycles:(-1) net))

let test_engine_settle_budget_code () =
  let eng =
    Engine.create ~mode:Engine.Reference ~max_passes:0
      (secded ()).Examples.sc_net
  in
  match Engine.step eng with
  | _ -> Alcotest.fail "zero settle budget should not converge"
  | exception Engine.Simulation_error e ->
    Alcotest.(check (option string)) "settle timeout is typed E110"
      (Some "E110") e.Engine.err_code

let suite =
  [ Alcotest.test_case "backoff is seed-deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff grows and caps" `Quick
      test_backoff_growth_and_cap;
    Alcotest.test_case "backoff jitter stays in band" `Quick
      test_backoff_jitter_bounded;
    Alcotest.test_case "backoff validates its policy" `Quick
      test_backoff_validation;
    Alcotest.test_case "checkpoint write/append/load round-trip" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint tolerates a truncated tail" `Quick
      test_checkpoint_truncated_tail;
    Alcotest.test_case "corrupt interior line is a hard error" `Quick
      test_checkpoint_corrupt_interior;
    Alcotest.test_case "foreign schema and missing file are errors" `Quick
      test_checkpoint_bad_schema;
    Alcotest.test_case "tasks complete and counters merge" `Quick
      test_runner_completes_and_merges;
    Alcotest.test_case "a crashing shard is isolated with provenance"
      `Quick test_runner_crash_isolation;
    Alcotest.test_case "transient failures retry with backoff" `Quick
      test_runner_transient_retry;
    Alcotest.test_case "retries are bounded" `Quick
      test_runner_retry_exhaustion;
    Alcotest.test_case "classification override is honoured" `Quick
      test_runner_classify_override;
    Alcotest.test_case "shard wall-clock deadline -> typed failure" `Quick
      test_runner_shard_deadline;
    Alcotest.test_case "campaign deadline stops dispatch" `Quick
      test_runner_campaign_deadline;
    Alcotest.test_case "duplicate task ids are rejected" `Quick
      test_runner_duplicate_ids;
    Alcotest.test_case "kill, checkpoint, resume: identical merge" `Quick
      test_runner_stop_and_resume;
    Alcotest.test_case "runner health metrics per worker" `Quick
      test_runner_health_metrics;
    Alcotest.test_case "runner campaign == sequential campaign" `Quick
      test_workload_matches_sequential_campaign;
    Alcotest.test_case "runner campaign at 1, 2, 4 workers == sequential"
      `Quick test_workload_width_determinism;
    Alcotest.test_case "runner campaign compiles one engine per worker"
      `Quick test_workload_engine_reuse;
    Alcotest.test_case "a failing golden run fails every task alike"
      `Quick test_workload_golden_failure;
    QCheck_alcotest.to_alcotest qcheck_equivalence;
    Alcotest.test_case "max_cycles raises typed E110" `Quick
      test_engine_max_cycles;
    Alcotest.test_case "settle exhaustion is typed E110" `Quick
      test_engine_settle_budget_code;
    Alcotest.test_case "a finished campaign is not stopped early" `Quick
      test_runner_finished_not_stopped;
    Alcotest.test_case "two clock readings per shard" `Quick
      test_runner_clock_reads;
    Alcotest.test_case "runner words per shard" `Quick
      test_runner_words_per_shard ]
