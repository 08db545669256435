open Elastic_sched
open Elastic_netlist
open Elastic_sim

(* A count the engine keeps, mirrored into a counter when a snapshot is
   taken: the engine's count minus its value at [create]. *)
type mirror = {
  mr_counter : Metrics.Counter.t;
  mr_read : Engine.t -> int;
  mr_base : int;
}

type sched_insts = {
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
  mirrors : mirror array;  (* channel counts, evals and violations *)
  c_cycles : Metrics.Counter.t;
  cycle0 : int;
  scheds : sched_insts Scheduler.watch array;
  buf_gauges : (Netlist.node_id, Metrics.Gauge.t) Hashtbl.t;
  sink_gauges : (Netlist.node_id * Metrics.Gauge.t) list;
  c_retries : Metrics.Counter.t;
  c_injections : Metrics.Counter.t;
  h_passes : Histogram.t;
  g_settle_seconds : Metrics.Gauge.t;
  g_stored : Metrics.Gauge.t;
}

and row = {
  r_cycle : int;
  r_window : int;
  r_samples : Metrics.sample list;
}

let mirror eng mr_counter mr_read =
  { mr_counter; mr_read; mr_base = mr_read eng }

(* Instruments are registered in exposition order, one [let] at a time:
   the Prometheus and JSONL goldens lock that order. *)
let create ?(window = 0) ?on_window eng =
  if window < 0 then invalid_arg "Sampler.create: negative window";
  let reg = Metrics.create () in
  let net = Engine.netlist eng in
  let channel_mirrors =
    Netlist.channels net
    |> List.concat_map (fun (c : Netlist.channel) ->
        let labels = [ ("channel", c.Netlist.ch_name) ] in
        let cid = c.Netlist.ch_id in
        let m help name read =
          mirror eng (Metrics.counter reg ~labels ~help name) read
        in
        let kills =
          m "Tokens annihilated by anti-tokens" "elastic_channel_kills_total"
            (fun e -> Engine.killed e cid)
        in
        let antis =
          m "Cycles with an anti-token present (V-)"
            "elastic_channel_anti_cycles_total"
            (fun e -> let _, _, anti = Engine.activity e cid in anti)
        in
        let stalls =
          m "Cycles with a valid token stalled (V+ and S+)"
            "elastic_channel_stall_cycles_total"
            (fun e -> let _, retry, _ = Engine.activity e cid in retry)
        in
        let transfers =
          m "Tokens delivered across the channel"
            "elastic_channel_transfers_total"
            (fun e -> Engine.delivered e cid)
        in
        [ kills; antis; stalls; transfers ])
  in
  let scheds =
    Engine.schedulers eng
    |> List.map (fun (nid, sched) ->
        let labels = [ ("node", (Netlist.node net nid).Netlist.name) ] in
        let sc_accuracy =
          Metrics.gauge reg ~labels ~help:"1 - mispredictions/serves"
            "elastic_sched_accuracy"
        in
        Metrics.Gauge.set sc_accuracy 1.0;
        let sc_penalty =
          Metrics.histogram reg ~labels
            ~help:"Cycles from squash to the completed replay serve"
            "elastic_sched_replay_penalty_cycles"
        in
        let sc_changes =
          Metrics.counter reg ~labels ~help:"Prediction changes"
            "elastic_sched_prediction_changes_total"
        in
        let sc_mispred =
          Metrics.counter reg ~labels
            ~help:"Detected mispredictions (squashes)"
            "elastic_sched_mispredictions_total"
        in
        let sc_serves =
          Metrics.counter reg ~labels
            ~help:"Tokens served by the shared module"
            "elastic_sched_serves_total"
        in
        Scheduler.watch sched
          { sc_serves; sc_mispred; sc_changes; sc_penalty; sc_accuracy })
    |> Array.of_list
  in
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
  let g_stored =
    Metrics.gauge reg ~help:"Net tokens stored in buffers"
      "elastic_engine_stored_tokens"
  in
  let g_settle_seconds =
    Metrics.gauge reg ~help:"Wall-clock seconds spent settling"
      "elastic_engine_settle_seconds"
  in
  let h_passes =
    Metrics.histogram reg ~help:"Settle passes per cycle"
      "elastic_engine_settle_passes"
  in
  let c_injections =
    Metrics.counter reg ~help:"Injected channel faults"
      "elastic_fault_injections_total"
  in
  let violations =
    mirror eng
      (Metrics.counter reg ~help:"Protocol monitor violations"
         "elastic_engine_protocol_violations_total")
      Engine.violation_count
  in
  let c_retries =
    Metrics.counter reg
      ~help:"Cycles whose settle phase needed more than one pass"
      "elastic_engine_convergence_retry_cycles_total"
  in
  let evals =
    mirror eng
      (Metrics.counter reg ~help:"Combinational node evaluations"
         "elastic_engine_node_evals_total")
      (fun e -> Profile.evals (Engine.profile e))
  in
  let c_cycles =
    Metrics.counter reg ~help:"Simulated cycles" "elastic_engine_cycles_total"
  in
  { reg; window; on_window;
    mirrors = Array.of_list (channel_mirrors @ [ violations; evals ]);
    c_cycles; cycle0 = Engine.cycle eng;
    scheds; buf_gauges; sink_gauges; c_retries; c_injections; h_passes;
    g_settle_seconds; g_stored }

let catch_up counter target =
  Metrics.Counter.add counter (target - Metrics.Counter.value counter)

(* Bring the mirrored counts and every gauge up to date, [cycles] being
   the number of cycles the engine's counters cover. *)
let refresh t eng ~cycles =
  catch_up t.c_cycles (cycles - t.cycle0);
  Array.iter (fun m -> catch_up m.mr_counter (m.mr_read eng - m.mr_base))
    t.mirrors;
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
    (fun w ->
       let s = Scheduler.payload w in
       let serves = Metrics.Counter.value s.sc_serves in
       let mispred = Metrics.Counter.value s.sc_mispred in
       Metrics.Gauge.set s.sc_accuracy
         (if serves = 0 then 1.0
          else
            Float.max 0.0
              (1.0 -. (float_of_int mispred /. float_of_int serves))))
    t.scheds

let sample t eng =
  refresh t eng ~cycles:(Engine.cycle eng);
  Metrics.snapshot t.reg

let on_activity =
  { Scheduler.serve = (fun s _ -> Metrics.Counter.inc s.sc_serves);
    replay = (fun s penalty -> Histogram.observe s.sc_penalty penalty);
    mispredict = (fun s _ -> Metrics.Counter.inc s.sc_mispred);
    change = (fun s _ -> Metrics.Counter.inc s.sc_changes) }

let observe t eng =
  let cyc = Engine.cycle eng in
  let passes = Profile.last_passes (Engine.profile eng) in
  Histogram.observe t.h_passes passes;
  if passes > 1 then Metrics.Counter.inc t.c_retries;
  Metrics.Counter.add t.c_injections (List.length (Engine.injected eng));
  for i = 0 to Array.length t.scheds - 1 do
    Scheduler.poll on_activity t.scheds.(i) ~cycle:cyc
  done;
  if t.window > 0 && (cyc + 1) mod t.window = 0 then begin
    (* The engine's counters already cover the elapsed cycle. *)
    refresh t eng ~cycles:(cyc + 1);
    match t.on_window with
    | None -> ()
    | Some f ->
      f { r_cycle = cyc + 1;
          r_window = t.window;
          r_samples = Metrics.snapshot t.reg }
  end

let attach ?window ?on_window eng =
  let t = create ?window ?on_window eng in
  Engine.add_observer eng (observe t);
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

let recovery_sample cls =
  { Metrics.m_name = "elastic_fault_recovery_total";
    m_help = "Recovery-check outcomes by classification";
    m_labels =
      [ ( "class",
          String.map
            (fun c -> if c = '-' then '_' else c)
            (Elastic_fault.Recovery.classification_label cls) ) ];
    m_value = Metrics.Counter 1 }

let note_recovery reg cls =
  let s = recovery_sample cls in
  Metrics.Counter.inc
    (Metrics.counter reg ~labels:s.Metrics.m_labels ~help:s.Metrics.m_help
       s.Metrics.m_name)
