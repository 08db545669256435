open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_sim

type chan_insts = {
  ci_id : Netlist.channel_id;
  ci_transfers : Metrics.Counter.t;
  ci_stalls : Metrics.Counter.t;
  ci_antis : Metrics.Counter.t;
  ci_kills : Metrics.Counter.t;
}

type sched_insts = {
  si_node : Netlist.node_id;
  si_sched : Scheduler.t;  (* live reference into the engine *)
  mutable si_serves : int;
  mutable si_mispred : int;
  mutable si_predict : int;
  mutable si_squash : int option;  (* cycle of the unreplayed squash *)
  sc_serves : Metrics.Counter.t;
  sc_mispred : Metrics.Counter.t;
  sc_changes : Metrics.Counter.t;
  sc_penalty : Histogram.t;
  sc_accuracy : Metrics.Gauge.t;
}

type t = {
  reg : Metrics.t;
  window : int;
  on_window : (row -> unit) option;
  chans : chan_insts array;
  scheds : sched_insts array;
  buf_gauges : (Netlist.node_id, Metrics.Gauge.t) Hashtbl.t;
  sink_gauges : (Netlist.node_id * Metrics.Gauge.t) list;
  c_cycles : Metrics.Counter.t;
  c_evals : Metrics.Counter.t;
  c_retries : Metrics.Counter.t;
  c_violations : Metrics.Counter.t;
  c_injections : Metrics.Counter.t;
  h_passes : Histogram.t;
  g_settle_seconds : Metrics.Gauge.t;
  g_stored : Metrics.Gauge.t;
  mutable prev_evals : int;
  mutable prev_violations : int;
}

and row = {
  r_cycle : int;
  r_window : int;
  r_samples : Metrics.sample list;
}

let create ?registry ?(window = 0) ?on_window eng =
  if window < 0 then invalid_arg "Sampler.create: negative window";
  let reg = match registry with Some r -> r | None -> Metrics.create () in
  let net = Engine.netlist eng in
  let chans =
    Netlist.channels net
    |> List.map (fun (c : Netlist.channel) ->
        let labels = [ ("channel", c.Netlist.ch_name) ] in
        { ci_id = c.Netlist.ch_id;
          ci_transfers =
            Metrics.counter reg ~labels
              ~help:"Tokens delivered across the channel"
              "elastic_channel_transfers_total";
          ci_stalls =
            Metrics.counter reg ~labels
              ~help:"Cycles with a valid token stalled (V+ and S+)"
              "elastic_channel_stall_cycles_total";
          ci_antis =
            Metrics.counter reg ~labels
              ~help:"Cycles with an anti-token present (V-)"
              "elastic_channel_anti_cycles_total";
          ci_kills =
            Metrics.counter reg ~labels
              ~help:"Tokens annihilated by anti-tokens"
              "elastic_channel_kills_total" })
    |> Array.of_list
  in
  let scheds =
    Engine.schedulers eng
    |> List.map (fun (nid, sched) ->
        let labels = [ ("node", (Netlist.node net nid).Netlist.name) ] in
        { si_node = nid;
          si_sched = sched;
          si_serves = Scheduler.serves sched;
          si_mispred = Scheduler.mispredictions sched;
          si_predict = Scheduler.predict sched;
          si_squash = None;
          sc_serves =
            Metrics.counter reg ~labels
              ~help:"Tokens served by the shared module"
              "elastic_sched_serves_total";
          sc_mispred =
            Metrics.counter reg ~labels
              ~help:"Detected mispredictions (squashes)"
              "elastic_sched_mispredictions_total";
          sc_changes =
            Metrics.counter reg ~labels
              ~help:"Prediction changes"
              "elastic_sched_prediction_changes_total";
          sc_penalty =
            Metrics.histogram reg ~labels
              ~help:"Cycles from squash to the completed replay serve"
              "elastic_sched_replay_penalty_cycles";
          sc_accuracy =
            Metrics.gauge reg ~labels
              ~help:"1 - mispredictions/serves"
              "elastic_sched_accuracy" })
    |> Array.of_list
  in
  Array.iter
    (fun s -> Metrics.Gauge.set s.sc_accuracy 1.0)
    scheds;
  let buf_gauges = Hashtbl.create 8 in
  List.iter
    (fun (nid, occ) ->
       let g =
         Metrics.gauge reg
           ~labels:[ ("node", (Netlist.node net nid).Netlist.name) ]
           ~help:"Signed token occupancy of the buffer"
           "elastic_buffer_occupancy"
       in
       Metrics.Gauge.set g (float_of_int occ);
       Hashtbl.replace buf_gauges nid g)
    (Engine.occupancies eng);
  let sink_gauges =
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Sink _ ->
           Some
             (n.Netlist.id,
              Metrics.gauge reg
                ~labels:[ ("sink", n.Netlist.name) ]
                ~help:"Tokens delivered per cycle since creation"
                "elastic_sink_throughput")
         | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
         | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
         | Netlist.Varlat _ -> None)
      (Netlist.nodes net)
  in
  { reg;
    window;
    on_window;
    chans;
    scheds;
    buf_gauges;
    sink_gauges;
    c_cycles =
      Metrics.counter reg ~help:"Simulated cycles"
        "elastic_engine_cycles_total";
    c_evals =
      Metrics.counter reg ~help:"Combinational node evaluations"
        "elastic_engine_node_evals_total";
    c_retries =
      Metrics.counter reg
        ~help:"Cycles whose settle phase needed more than one pass"
        "elastic_engine_convergence_retry_cycles_total";
    c_violations =
      Metrics.counter reg ~help:"Protocol monitor violations"
        "elastic_engine_protocol_violations_total";
    c_injections =
      Metrics.counter reg ~help:"Injected channel faults"
        "elastic_fault_injections_total";
    h_passes =
      Metrics.histogram reg ~help:"Settle passes per cycle"
        "elastic_engine_settle_passes";
    g_settle_seconds =
      Metrics.gauge reg ~help:"Wall-clock seconds spent settling"
        "elastic_engine_settle_seconds";
    g_stored =
      Metrics.gauge reg ~help:"Net tokens stored in buffers"
        "elastic_engine_stored_tokens";
    prev_evals = Profile.evals (Engine.profile eng);
    prev_violations = Engine.violation_count eng }

let registry t = t.reg

(* Gauges involve list walks over engine state, so they are refreshed
   only at window boundaries (or every cycle when no window is set). *)
let refresh_gauges t eng =
  Metrics.Gauge.set t.g_settle_seconds
    (Profile.settle_seconds (Engine.profile eng));
  Metrics.Gauge.set t.g_stored (float_of_int (Engine.stored_tokens eng));
  List.iter
    (fun (nid, occ) ->
       match Hashtbl.find_opt t.buf_gauges nid with
       | Some g -> Metrics.Gauge.set g (float_of_int occ)
       | None -> ())
    (Engine.occupancies eng);
  List.iter
    (fun (nid, g) -> Metrics.Gauge.set g (Engine.throughput eng nid))
    t.sink_gauges;
  Array.iter
    (fun s ->
       let serves = Metrics.Counter.value s.sc_serves in
       let mispred = Metrics.Counter.value s.sc_mispred in
       Metrics.Gauge.set s.sc_accuracy
         (if serves = 0 then 1.0
          else
            Float.max 0.0
              (1.0 -. (float_of_int mispred /. float_of_int serves))))
    t.scheds

let sample t eng =
  refresh_gauges t eng;
  Metrics.snapshot t.reg

let observe t eng =
  let cyc = Engine.cycle eng in
  Metrics.Counter.inc t.c_cycles;
  let prof = Engine.profile eng in
  let evals = Profile.evals prof in
  Metrics.Counter.add t.c_evals (evals - t.prev_evals);
  t.prev_evals <- evals;
  let passes = Profile.last_passes prof in
  Histogram.observe t.h_passes passes;
  if passes > 1 then Metrics.Counter.inc t.c_retries;
  List.iter (fun _ -> Metrics.Counter.inc t.c_injections)
    (Engine.injected eng);
  Array.iter
    (fun c ->
       let code = Engine.code eng c.ci_id in
       let bev = Signal.events_of_code code in
       let r = Signal.resolve_code code in
       if bev.Signal.token_in then Metrics.Counter.inc c.ci_transfers;
       if bev.Signal.cancelled then Metrics.Counter.inc c.ci_kills;
       if Signal.in_retry r then Metrics.Counter.inc c.ci_stalls;
       if r land Signal.v_minus_bit <> 0 then
         Metrics.Counter.inc c.ci_antis)
    t.chans;
  (* Scheduler activity from counter deltas, mirroring the tracer: the
     serve is attributed to the prediction in effect during the elapsed
     cycle, and a replay only completes on a later cycle's serve. *)
  Array.iter
    (fun s ->
       let serves = Scheduler.serves s.si_sched in
       let mispred = Scheduler.mispredictions s.si_sched in
       for _ = 1 to serves - s.si_serves do
         Metrics.Counter.inc s.sc_serves;
         match s.si_squash with
         | Some c0 when c0 < cyc ->
           Histogram.observe s.sc_penalty (cyc - c0);
           s.si_squash <- None
         | Some _ | None -> ()
       done;
       s.si_serves <- serves;
       if mispred > s.si_mispred then begin
         Metrics.Counter.add s.sc_mispred (mispred - s.si_mispred);
         s.si_mispred <- mispred;
         s.si_squash <- Some cyc
       end;
       let p = Scheduler.predict s.si_sched in
       if p <> s.si_predict then begin
         Metrics.Counter.inc s.sc_changes;
         s.si_predict <- p
       end)
    t.scheds;
  let violations = Engine.violation_count eng in
  if violations > t.prev_violations then begin
    Metrics.Counter.add t.c_violations (violations - t.prev_violations);
    t.prev_violations <- violations
  end;
  if t.window = 0 then refresh_gauges t eng
  else if (cyc + 1) mod t.window = 0 then begin
    refresh_gauges t eng;
    match t.on_window with
    | None -> ()
    | Some f ->
      f { r_cycle = cyc + 1;
          r_window = t.window;
          r_samples = Metrics.snapshot t.reg }
  end

let attach ?registry ?window ?on_window eng =
  let t = create ?registry ?window ?on_window eng in
  Engine.set_observer eng (Some (observe t));
  t

let jsonl_of_row row =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)
  in
  let sample_json (s : Metrics.sample) =
    let base =
      [ ("name", Json.Str s.Metrics.m_name);
        ("labels", labels_json s.Metrics.m_labels) ]
    in
    Json.Obj
      (match s.Metrics.m_value with
       | Metrics.Counter v ->
         base @ [ ("kind", Json.Str "counter"); ("value", Json.Int v) ]
       | Metrics.Gauge v ->
         base @ [ ("kind", Json.Str "gauge"); ("value", Json.Float v) ]
       | Metrics.Histogram h ->
         base
         @ [ ("kind", Json.Str "histogram");
             ("count", Json.Int (Histogram.s_count h));
             ("sum", Json.Int (Histogram.s_sum h));
             ("min", Json.Int (Histogram.s_min h));
             ("max", Json.Int (Histogram.s_max h));
             ("p50", Json.Int (Histogram.s_quantile h 0.5));
             ("p90", Json.Int (Histogram.s_quantile h 0.9));
             ("p99", Json.Int (Histogram.s_quantile h 0.99)) ])
  in
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str "elastic-speculation/metrics/v1");
         ("cycle", Json.Int row.r_cycle);
         ("window", Json.Int row.r_window);
         ("samples", Json.List (List.map sample_json row.r_samples)) ])

let note_recovery reg cls =
  let label =
    String.map
      (fun c -> if c = '-' then '_' else c)
      (Elastic_fault.Recovery.classification_label cls)
  in
  Metrics.Counter.inc
    (Metrics.counter reg
       ~labels:[ ("class", label) ]
       ~help:"Recovery-check outcomes by classification"
       "elastic_fault_recovery_total")
