open Elastic_fault
module Metrics = Elastic_metrics.Metrics
module Sampler = Elastic_metrics.Sampler
module Recorder = Elastic_obs.Recorder
module Span = Elastic_obs.Span

(* Phase spans are synthesized after the fact from the engine's own
   Profile totals (captured via Recovery.check ~observer), never by
   timing the hot loop here: with spans off the settle loop sees zero
   extra clock reads and zero extra allocation.  The emitted intervals
   are laid end to end from the observed start and clamped to the
   observed end, so they stay well nested under the attempt span even
   when profile totals and wall time disagree by a rounding error. *)
let emit_phases (rc, attempt_id) ~t0 ~t1 profile =
  let ns s = Int64.of_float (s *. 1e9) in
  let c_end =
    let e = Int64.add t0 (ns (Elastic_sim.Profile.compile_seconds profile)) in
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
let shared_golden ?cycles ?settle net =
  let lock = Pool_backend.create_lock () in
  let cached = ref None in
  fun () ->
    Pool_backend.with_lock lock (fun () ->
        match !cached with
        | Some g -> g
        | None ->
          let g = Recovery.golden_run ?cycles ?settle net in
          cached := Some g;
          g)

let of_campaign ?cycles ?settle ?alarms ~name net ~scenarios =
  let golden = shared_golden ?cycles ?settle net in
  List.mapi
    (fun i faults ->
       { Runner.id = Fmt.str "%s/%04d" name i;
         work =
           (fun (ctx : Runner.ctx) ->
              ctx.check_deadline ();
              let golden = golden () in
              let profile = ref None in
              let observer e =
                profile := Some (Elastic_sim.Engine.profile e)
              in
              let t0 =
                match ctx.obs with
                | Some (rc, _) -> Recorder.now rc
                | None -> 0L
              in
              let report =
                Recovery.check ?cycles ?settle ?alarms ~observer ~golden net
                  ~faults
              in
              (match ctx.obs, !profile with
               | Some ((rc, _) as obs), Some p ->
                 emit_phases obs ~t0 ~t1:(Recorder.now rc) p
               | (Some _ | None), _ -> ());
              let reg = Metrics.create () in
              Metrics.Counter.inc
                (Metrics.counter reg
                   ~help:"fault scenarios checked"
                   "elastic_fault_scenarios_total");
              Metrics.Counter.add
                (Metrics.counter reg
                   ~help:"faults injected across scenarios"
                   "elastic_fault_injections_total")
                (List.length faults);
              Sampler.note_recovery reg report.Recovery.classification;
              (match report.Recovery.classification with
               | Recovery.Corrected penalty ->
                 Elastic_metrics.Histogram.observe
                   (Metrics.histogram reg
                      ~help:"extra delay of corrected scenarios, cycles"
                      "elastic_fault_recovery_penalty_cycles")
                   penalty
               | Recovery.Masked | Recovery.Detected _
               | Recovery.Silent_corruption _ | Recovery.Deadlock _
               | Recovery.Crashed _ -> ());
              (match report.Recovery.stabilized with
               | Some (cycles, lag) ->
                 Elastic_metrics.Histogram.observe
                   (Metrics.histogram reg
                      ~help:
                        "cycles from the last fault window until the \
                         faulted run rejoins the golden trajectory, by lag"
                      ~labels:[ ("lag", string_of_int lag) ]
                      "elastic_fault_stabilization_cycles")
                   cycles
               | None -> ());
              Metrics.snapshot reg) })
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
