open Elastic_fault
module Metrics = Elastic_metrics.Metrics
module Sampler = Elastic_metrics.Sampler
module Histogram = Elastic_metrics.Histogram
module Recorder = Elastic_obs.Recorder
module Span = Elastic_obs.Span

(* Phase spans are synthesized after the fact from the faulted engine's
   own Profile totals, never by timing the hot loop here: with spans off
   the settle loop sees zero extra clock reads and zero extra
   allocation.  [compile_s] is the engine's compile time when this task
   compiled it and 0 when it reused one.  The emitted intervals are laid
   end to end from the observed start and clamped to the observed end,
   so they stay well nested under the attempt span even when profile
   totals and wall time disagree by a rounding error. *)
let emit_phases (rc, attempt_id) ~t0 ~t1 ~compile_s profile =
  let ns s = Int64.of_float (s *. 1e9) in
  let c_end =
    let e = Int64.add t0 (ns compile_s) in
    if Int64.compare e t1 > 0 then t1 else e
  in
  Recorder.emit rc ~parent:attempt_id Span.Compile "compile" ~start_ns:t0
    ~end_ns:c_end;
  let s_end =
    let e =
      Int64.add c_end (ns (Elastic_sim.Profile.settle_seconds profile))
    in
    if Int64.compare e t1 > 0 then t1 else e
  in
  Recorder.emit rc ~parent:attempt_id Span.Settle "settle" ~start_ns:c_end
    ~end_ns:s_end

(* The campaign's golden run, built by the first task that asks for it
   and then read by every worker.  A lock rather than [Lazy.force], which
   is not domain-safe; a build that raises is not cached, so each task
   that asks reports the failure itself. *)
let shared_golden ?cycles ?settle ?alarms net =
  let lock = Pool_backend.create_lock () in
  let cached = ref None in
  fun () ->
    Pool_backend.with_lock lock (fun () ->
        match !cached with
        | Some g -> g
        | None ->
          let g = Recovery.golden_run ?cycles ?settle ?alarms net in
          cached := Some g;
          g)

(* The campaign's faulted engines: a task takes a free one, or compiles
   one (outside the lock) when none is free, and gives it back when done,
   so a campaign compiles at most one per worker.  [take] also says
   whether it compiled. *)
let engine_pool () =
  let lock = Pool_backend.create_lock () in
  let free = ref [] in
  let take golden =
    let reused =
      Pool_backend.with_lock lock (fun () ->
          match !free with
          | e :: rest ->
            free := rest;
            Some e
          | [] -> None)
    in
    match reused with
    | Some e -> (e, false)
    | None -> (Recovery.faulted_engine golden, true)
  in
  let give e = Pool_backend.with_lock lock (fun () -> free := e :: !free) in
  (take, give)

let of_campaign ?cycles ?settle ?alarms ~name net ~scenarios =
  let golden = shared_golden ?cycles ?settle ?alarms net in
  let take, give = engine_pool () in
  List.mapi
    (fun i faults ->
       { Runner.id = Fmt.str "%s/%04d" name i;
         work =
           (fun (ctx : Runner.ctx) ->
              ctx.check_deadline ();
              let golden = golden () in
              let t0 =
                match ctx.obs with
                | Some (rc, _) -> Recorder.now rc
                | None -> 0L
              in
              let engine, compiled = take golden in
              let report = Recovery.check ~engine golden ~faults in
              (match ctx.obs with
               | Some ((rc, _) as obs) ->
                 let p = Elastic_sim.Engine.profile engine in
                 let compile_s =
                   if compiled then Elastic_sim.Profile.compile_seconds p
                   else 0.0
                 in
                 emit_phases obs ~t0 ~t1:(Recorder.now rc) ~compile_s p
               | None -> ());
              (* Only now: the profile emit_phases read is reset by the
                 next scenario on this engine, maybe on another domain.
                 An engine whose task raised is dropped. *)
              give engine;
              (* The samples a registry of the scenario's own would
                 snapshot, built without one: a registry costs a
                 64-bucket hash table and a keyed lookup per metric. *)
              let sample ?(labels = []) m_name m_help m_value =
                { Metrics.m_name; m_help; m_labels = labels; m_value }
              in
              let once v =
                let h = Histogram.create () in
                Histogram.observe h v;
                Metrics.Histogram (Histogram.snapshot h)
              in
              [ sample "elastic_fault_scenarios_total" "fault scenarios checked"
                  (Metrics.Counter 1);
                sample "elastic_fault_injections_total"
                  "faults injected across scenarios"
                  (Metrics.Counter (List.length faults));
                Sampler.recovery_sample report.Recovery.classification ]
              @ (match report.Recovery.classification with
                  | Recovery.Corrected penalty ->
                    [ sample "elastic_fault_recovery_penalty_cycles"
                        "extra delay of corrected scenarios, cycles"
                        (once penalty) ]
                  | Recovery.Masked | Recovery.Detected _
                  | Recovery.Silent_corruption _ | Recovery.Deadlock _
                  | Recovery.Crashed _ -> [])
              @ (match report.Recovery.stabilized with
                  | Some (cycles, lag) ->
                    [ sample ~labels:[ ("lag", string_of_int lag) ]
                        "elastic_fault_stabilization_cycles"
                        "cycles from the last fault window until the \
                         faulted run rejoins the golden trajectory, by lag"
                        (once cycles) ]
                  | None -> [])) })
    scenarios

let classification_histogram samples =
  List.filter_map
    (fun (s : Metrics.sample) ->
       if String.equal s.m_name "elastic_fault_recovery_total" then
         match s.m_labels, s.m_value with
         | [ ("class", label) ], Metrics.Counter c -> Some (label, c)
         | _, _ -> None
       else None)
    samples
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
