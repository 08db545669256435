open Elastic_sim
module Metrics = Elastic_metrics.Metrics
module Json = Elastic_metrics.Json
module Span = Elastic_obs.Span
module Recorder = Elastic_obs.Recorder
module Collector = Elastic_obs.Collector

exception Deadline_exceeded of string

exception Killed of string

type ctx = {
  shard_id : string;
  shard_index : int;
  attempt : int;
  check_deadline : unit -> unit;
  obs : (Recorder.t * int) option;
}

type task = {
  id : string;
  work : ctx -> Metrics.sample list;
}

type classification = Progress.classification =
  | Transient
  | Permanent

let default_classify = function
  | Engine.Simulation_error _ | Elastic_netlist.Diagnostic.Reject _
  | Invalid_argument _ | Failure _ | Assert_failure _ ->
    Permanent
  | Deadline_exceeded _ | Killed _ | _ -> Transient

type failure = Progress.failure = {
  f_exn : string;
  f_class : classification;
}

type status =
  | Completed of Metrics.sample list
  | Failed of failure
  | Not_run

type shard = {
  sh_id : string;
  sh_index : int;
  sh_status : status;
  sh_attempts : int;
  sh_worker : int;
  sh_resumed : bool;
}

type worker_stats = {
  w_tasks : int;
  w_completed : int;
  w_retries : int;
  w_timeouts : int;
}

type report = {
  r_name : string;
  r_shards : shard list;
  r_merged : Metrics.sample list;
  r_completed : int;
  r_failed : int;
  r_not_run : int;
  r_resumed : int;
  r_workers : worker_stats array;
  r_stopped : bool;
}

let class_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"

(* The report, folded from the plane's slots once the workers joined.
   Every attempt of a shard runs on the worker recorded in its slot, so
   the per-worker sums are exact. *)
let fold_report ~name ~workers ~stopped (tasks : task array) plane =
  let slot = Progress.slot plane in
  let shard i =
    let s = slot i in
    { sh_id = tasks.(i).id;
      sh_index = i;
      sh_status =
        (match s.s_state with
         | Progress.Completed -> Completed s.s_samples
         | Progress.Failed -> Failed (Option.get s.s_failure)
         | Progress.Pending | Progress.Running -> Not_run);
      sh_attempts = s.s_attempts;
      sh_worker = s.s_worker;
      sh_resumed = s.s_resumed }
  in
  let worker_stats w =
    let attempts = ref 0 and completed = ref 0 and retries = ref 0
    and timeouts = ref 0 in
    for i = 0 to Progress.shards plane - 1 do
      let s = slot i in
      if s.s_worker = w then begin
        attempts := !attempts + s.s_attempts;
        if s.s_state = Progress.Completed then incr completed;
        retries := !retries + s.s_attempts - 1;
        timeouts := !timeouts + s.s_timeouts
      end
    done;
    { w_tasks = !attempts; w_completed = !completed; w_retries = !retries;
      w_timeouts = !timeouts }
  in
  let c = Progress.counts plane in
  { r_name = name;
    r_shards = List.init (Array.length tasks) shard;
    r_merged = Progress.merged plane;
    r_completed = c.c_completed;
    r_failed = c.c_failed;
    r_not_run = c.c_pending + c.c_running;
    r_resumed = Progress.resumed plane;
    r_workers = Array.init workers worker_stats;
    r_stopped = stopped }

let run ?workers ?(max_attempts = 3) ?(seed = 2009)
    ?(classify = default_classify) ?shard_deadline
    ?campaign_deadline ?(clock = Clock.monotonic) ?(sleep = Unix.sleepf)
    ?checkpoint ?resume ?command ?stop_after ?registry ?obs ?progress
    ~name tasks =
  let nw =
    match workers with
    | Some w when w <= 0 -> invalid_arg "Runner.run: non-positive workers"
    | Some w -> w
    | None -> Pool_backend.recommended ()
  in
  if max_attempts < 1 then
    invalid_arg "Runner.run: max_attempts must be >= 1";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  (match progress with
   | Some p when Progress.shards p <> n ->
     invalid_arg
       (Fmt.str "Runner.run: progress plane has %d shards, campaign has %d"
          (Progress.shards p) n)
   | Some p when (Progress.counts p).c_pending <> n ->
     invalid_arg "Runner.run: progress plane already in use"
   | Some _ | None -> ());
  let ids = Hashtbl.create n in
  Array.iter
    (fun t ->
       if Hashtbl.mem ids t.id then
         invalid_arg (Fmt.str "Runner.run: duplicate task id %S" t.id);
       Hashtbl.add ids t.id ())
    tasks;
  let plane =
    match progress with
    | Some p -> p
    | None ->
      Progress.create ~clock ~name ~ids:(Array.map (fun t -> t.id) tasks) ()
  in
  let start =
    match campaign_deadline with Some _ -> clock () | None -> 0L
  in
  (* Adopt checkpointed shards: matched by task id, never re-run. *)
  let adopted = Hashtbl.create 16 in
  (match resume with
   | None -> ()
   | Some (cp : Checkpoint.t) ->
     List.iter
       (fun (e : Checkpoint.entry) ->
          if Hashtbl.mem ids e.e_id then
            Hashtbl.replace adopted e.e_id e)
       cp.entries);
  let carried = ref [] in
  Array.iteri
    (fun i t ->
       match Hashtbl.find_opt adopted t.id with
       | Some (e : Checkpoint.entry) ->
         Progress.adopt plane ~shard:i e.e_samples;
         carried := { e with Checkpoint.e_index = i } :: !carried
       | None -> ())
    tasks;
  let carried = List.rev !carried in
  (* Seed (or re-seed) the checkpoint file with the header plus carried
     entries, atomically; workers then append one line per shard. *)
  (match checkpoint with
   | None -> ()
   | Some path ->
     Checkpoint.write ~path
       { Checkpoint.campaign = name; command; shards = n; seed }
       carried);
  (* One queue: [next] walks the shard indices in order past the
     adopted ones.  It advances under [global], which also guards the
     stop flag and the completion count. *)
  let global = Pool_backend.create_lock () in
  let next = ref 0 in
  let stopped = ref false in
  let completions = ref 0 in
  (* Span ledger: one single-writer recorder per worker, a campaign
     root on track 0 entered before the workers start and left after
     they join (no concurrent writer either side of the run). *)
  (match obs with
   | Some c -> Collector.prepare c ~tracks:nw
   | None -> ());
  let orec w =
    match obs with None -> None | Some c -> Some (Collector.track c w)
  in
  let camp_scope =
    match orec 0 with
    | None -> None
    | Some r0 ->
      Some
        (Recorder.enter r0 Span.Campaign name
           ~attrs:
             [ ("workers", Span.Int nw);
               ("shards", Span.Int n);
               ("resumed", Span.Int (List.length carried)) ])
  in
  let camp_id =
    match camp_scope with
    | Some sc -> Recorder.id sc
    | None -> Span.no_parent
  in
  let note_completion ?ckpt_span ~attempt ~seconds i samples =
    Pool_backend.with_lock global (fun () ->
        incr completions;
        (match checkpoint with
         | Some path -> (
             let e =
               { Checkpoint.e_id = tasks.(i).id; e_index = i;
                 e_attempts = attempt; e_seconds = seconds;
                 e_samples = samples }
             in
             match ckpt_span with
             | Some (r, parent) ->
               let sc =
                 Recorder.enter r ~parent Span.Checkpoint_write
                   "checkpoint-write"
               in
               Checkpoint.append ~path e;
               Recorder.leave r sc
             | None -> Checkpoint.append ~path e)
         | None -> ());
        match stop_after with
        | Some k when !completions >= k -> stopped := true
        | Some _ | None -> ())
  in
  let campaign_expired now =
    match campaign_deadline with
    | Some d -> Clock.seconds_between start now > d
    | None -> false
  in
  (* Defined once, so a dispatch allocates no closure. *)
  let take_locked () =
    while !next < n && (Progress.slot plane !next).s_resumed do
      incr next
    done;
    if !stopped || !next >= n then None
    else if Option.is_some campaign_deadline && campaign_expired (clock ())
    then begin
      stopped := true;
      None
    end
    else begin
      incr next;
      Some (!next - 1)
    end
  in
  let take () = Pool_backend.with_lock global take_locked in
  (* Deadline margin at the attempt's end: how much of the shard's
     wall-clock budget was left (negative when it fired). *)
  let leave_attempt r att_scope attempt_start =
    match (r, att_scope) with
    | Some rc, Some sc ->
      (match shard_deadline with
       | Some d ->
         Recorder.add_attr sc "deadline_margin_s"
           (Span.Float (d -. Clock.seconds_between attempt_start (clock ())))
       | None -> ());
      Recorder.leave rc sc
    | _ -> ()
  in
  let run_shard w rng i =
    let t = tasks.(i) in
    let r = orec w in
    let shard_scope =
      match r with
      | None -> None
      | Some rc ->
        Some
          (Recorder.enter rc ~parent:camp_id Span.Shard t.id
             ~attrs:[ ("worker", Span.Int w); ("index", Span.Int i) ])
    in
    let shard_id =
      match shard_scope with
      | Some sc -> Recorder.id sc
      | None -> Span.no_parent
    in
    let rec attempt_loop attempt =
      let attempt_start = clock () in
      Progress.start_shard plane ~shard:i ~worker:w ~attempt
        ~now:attempt_start;
      let att_scope =
        match r with
        | None -> None
        | Some rc ->
          Some
            (Recorder.enter rc ~parent:shard_id Span.Attempt
               (Fmt.str "attempt-%d" attempt)
               ~attrs:[ ("attempt", Span.Int attempt) ])
      in
      let check_deadline () =
        let now = clock () in
        (* Heartbeat for the telemetry watchdog, reusing the reading the
           deadline check just made — no extra clock traffic. *)
        Progress.beat_at plane ~shard:i now;
        if campaign_expired now then
          raise
            (Deadline_exceeded
               (Fmt.str "campaign %S wall-clock deadline exceeded" name));
        match shard_deadline with
        | Some d when Clock.seconds_between attempt_start now > d ->
          raise
            (Deadline_exceeded
               (Fmt.str
                  "shard %S attempt %d exceeded its %gs wall-clock budget"
                  t.id attempt d))
        | Some _ | None -> ()
      in
      let ctx =
        { shard_id = t.id; shard_index = i; attempt; check_deadline;
          obs =
            (match (r, att_scope) with
             | Some rc, Some sc -> Some (rc, Recorder.id sc)
             | _ -> None) }
      in
      match t.work ctx with
      | samples ->
        let now = clock () in
        let seconds = Clock.seconds_between attempt_start now in
        Progress.complete plane ~shard:i ~now ~seconds samples;
        Option.iter
          (fun sc -> Recorder.add_attr sc "status" (Span.Str "ok"))
          att_scope;
        note_completion
          ?ckpt_span:
            (match (r, att_scope) with
             | Some rc, Some sc -> Some (rc, Recorder.id sc)
             | _ -> None)
          ~attempt ~seconds i samples;
        leave_attempt r att_scope attempt_start
      | exception e ->
        (match e with
         | Deadline_exceeded _ -> Progress.note_timeout plane ~shard:i
         | _ -> ());
        let cls = classify e in
        (match att_scope with
         | Some sc ->
           Recorder.add_attr sc "status" (Span.Str "failed");
           Recorder.add_attr sc "class" (Span.Str (class_name cls));
           Recorder.add_attr sc "error" (Span.Str (Printexc.to_string e))
         | None -> ());
        if cls = Transient && attempt < max_attempts then begin
          let delay = Backoff.delay Backoff.default ~rng ~attempt in
          (match (r, att_scope) with
           | Some rc, Some sc ->
             let bsc =
               Recorder.enter rc ~parent:(Recorder.id sc)
                 Span.Backoff_sleep "backoff-sleep"
                 ~attrs:
                   [ ("delay_s", Span.Float delay);
                     ("attempt", Span.Int attempt) ]
             in
             sleep delay;
             Recorder.leave rc bsc
           | _ -> sleep delay);
          leave_attempt r att_scope attempt_start;
          attempt_loop (attempt + 1)
        end
        else begin
          Progress.fail plane ~shard:i
            { f_exn = Printexc.to_string e; f_class = cls };
          leave_attempt r att_scope attempt_start
        end
    in
    attempt_loop 1;
    match (r, shard_scope) with
    | Some rc, Some sc ->
      let s = Progress.slot plane i in
      Recorder.add_attr sc "attempts" (Span.Int s.s_attempts);
      Recorder.add_attr sc "status"
        (Span.Str
           (match s.s_state with
            | Progress.Completed -> "completed"
            | Progress.Failed -> "failed"
            | Progress.Pending | Progress.Running -> "not-run"));
      Recorder.leave rc sc
    | _ -> ()
  in
  let body w =
    (* Worker-local jitter stream: distinct per worker, reproducible
       from the campaign seed. *)
    let rng = Rng.create ~seed:(seed + (7919 * w)) in
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
        run_shard w rng i;
        loop ()
    in
    loop ()
  in
  if n > 0 then Pool_backend.run_workers nw body;
  (* Close the campaign root and derive the scheduling gauges while the
     wall time is at hand. *)
  let campaign_wall_seconds =
    match (orec 0, camp_scope) with
    | Some r0, Some sc ->
      let wall =
        Clock.seconds_between (Recorder.start_ns sc) (Recorder.now r0)
      in
      Recorder.leave r0 sc;
      wall
    | _ -> 0.0
  in
  (match (obs, registry) with
   | Some c, Some reg ->
     Collector.note_gauges c ~wall_seconds:campaign_wall_seconds reg
   | _ -> ());
  let report =
    fold_report ~name ~workers:nw
      ~stopped:(Pool_backend.with_lock global (fun () -> !stopped))
      tasks plane
  in
  (match registry with
   | None -> ()
   | Some reg ->
     Array.iteri
       (fun w s ->
          let labels = [ ("worker", string_of_int w) ] in
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"shard attempts started by this worker"
               "elastic_runner_tasks_total")
            s.w_tasks;
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"transient-failure retries by this worker"
               "elastic_runner_retries_total")
            s.w_retries;
          Metrics.Counter.add
            (Metrics.counter reg ~labels
               ~help:"wall-clock deadline hits observed by this worker"
               "elastic_runner_timeouts_total")
            s.w_timeouts)
       report.r_workers);
  report

let pp_report ppf r =
  Fmt.pf ppf "campaign %S: %d shards — %d completed" r.r_name
    (List.length r.r_shards) r.r_completed;
  if r.r_resumed > 0 then Fmt.pf ppf " (%d resumed)" r.r_resumed;
  Fmt.pf ppf ", %d failed, %d not run%s@," r.r_failed r.r_not_run
    (if r.r_stopped then " [stopped early]" else "");
  List.iter
    (fun sh ->
       match sh.sh_status with
       | Failed f ->
         Fmt.pf ppf "  shard %s (index %d): FAILED %s after %d attempt%s: %s@,"
           sh.sh_id sh.sh_index (class_name f.f_class) sh.sh_attempts
           (if sh.sh_attempts = 1 then "" else "s")
           f.f_exn
       | Not_run ->
         Fmt.pf ppf "  shard %s (index %d): not run@," sh.sh_id sh.sh_index
       | Completed _ -> ())
    r.r_shards;
  Array.iteri
    (fun w s ->
       Fmt.pf ppf
         "  worker %d: %d attempts, %d completed, %d retries, %d timeouts@,"
         w s.w_tasks s.w_completed s.w_retries s.w_timeouts)
    r.r_workers

let report_json r =
  let shard_json sh =
    let status, extra =
      match sh.sh_status with
      | Completed _ -> ("completed", [])
      | Failed f ->
        ( "failed",
          [ ("error", Json.Str f.f_exn);
            ("class", Json.Str (class_name f.f_class)) ] )
      | Not_run -> ("not_run", [])
    in
    Json.Obj
      (( [ ("id", Json.Str sh.sh_id);
           ("index", Json.Int sh.sh_index);
           ("status", Json.Str status);
           ("attempts", Json.Int sh.sh_attempts);
           ("resumed", Json.Bool sh.sh_resumed) ]
         @ extra ))
  in
  let worker_json w s =
    Json.Obj
      [ ("worker", Json.Int w);
        ("tasks", Json.Int s.w_tasks);
        ("completed", Json.Int s.w_completed);
        ("retries", Json.Int s.w_retries);
        ("timeouts", Json.Int s.w_timeouts) ]
  in
  Json.Obj
    [ ("campaign", Json.Str r.r_name);
      ("shards", Json.Int (List.length r.r_shards));
      ("completed", Json.Int r.r_completed);
      ("failed", Json.Int r.r_failed);
      ("not_run", Json.Int r.r_not_run);
      ("resumed", Json.Int r.r_resumed);
      ("stopped", Json.Bool r.r_stopped);
      ("shard_detail", Json.List (List.map shard_json r.r_shards));
      ("workers",
       Json.List
         (Array.to_list (Array.mapi worker_json r.r_workers))) ]
