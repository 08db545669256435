open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type session = {
  mutable net : Netlist.t option;
  mutable design : string;
      (* Name of the loaded design, for lint report headers. *)
  mutable undo : Netlist.t list;
  mutable redo : Netlist.t list;
  mutable trace_capacity : int option;
      (* [Some capacity] while [trace on] is in effect. *)
  mutable tracer : Elastic_trace.Tracer.t option;
      (* Tracer of the most recent traced simulation command, kept for
         [trace dump] and for enriching simulation-error reports. *)
  mutable on_error_continue : bool;
      (* Script mode: keep executing after a failing line. *)
  mutable pending_resume : Elastic_runner.Checkpoint.t option;
      (* Set by [runner resume] for the campaign command it re-executes;
         consumed by the next [campaign --par] run. *)
  mutable eval_mode : Elastic_sim.Engine.eval_mode;
      (* Backend of simulation engines, picked by the [mode] command. *)
  mutable spans_capacity : int option;
      (* [Some per-worker ring capacity] while [spans on] is in effect:
         the next [campaign --par] records a span ledger. *)
  mutable collector : Elastic_obs.Collector.t option;
      (* Span ledger of the most recent instrumented campaign, kept for
         [spans dump] and the export commands. *)
  mutable telemetry : Elastic_telemetry.Telemetry.t option;
      (* Live telemetry hub while [serve] is in effect: campaigns
         attach their progress plane to it so /metrics, /status and
         /healthz track the run as it happens. *)
}

let create () =
  { net = None; design = "netlist"; undo = []; redo = [];
    trace_capacity = None; tracer = None; on_error_continue = false;
    pending_resume = None; eval_mode = Elastic_sim.Engine.default_mode;
    spans_capacity = None;
    collector = None; telemetry = None }

let current s = s.net

let help =
  {|Commands (the paper's exploration toolkit):
  load <design>            load a predefined design:
                           fig1a fig1b fig1c fig1d table1
                           vl-stalling vl-speculative rs-nonspec rs-spec
                           rs-alarmed
  show                     print nodes and channels
  candidates               list speculation candidates (critical cycles
                           through a multiplexor select)
  bubble <channel>         insert an empty EB on a channel
  buffer <channel> eb|eb0  insert a buffer of the given kind
  remove-buffer <node>     splice an empty buffer out
  convert <node> eb|eb0    change a buffer implementation (Fig. 5)
  fifo <channel> <depth>   insert a chain of empty EBs
  retime-fwd <node>        move input-buffer tokens across a block
  retime-bwd <node>        move an empty output buffer to the inputs
  shannon <mux>            Shannon decomposition of the block after <mux>
  early <mux>              switch <mux> to early evaluation
  share <n1> <n2> [sched]  share two identical blocks (sched: sticky,
                           toggle, two-bit, round-robin, static0, static1)
  speculate [mux] [sched]  the full recipe of Section 4 (steps 2-4)
  save <file> / open <file>  netlist files (.enl); custom blocks must be
                           registered with Library.register before open
  throughput [cycles]      simulate and report per-sink throughput
  stats [cycles]           per-channel utilization and stall ratios
  trace [cycles]           Table-1-style trace of every channel
  trace on [capacity]      record typed events (transfers, stalls, anti-
                           tokens, predictions, squashes, replays) during
                           subsequent simulation commands
  trace off                stop recording (the last trace stays dumpable)
  trace dump [n]           print the last n recorded events
  vcd <file> [cycles]      simulate and write a VCD waveform (handshake
                           wires + channel state + data, GTKWave-ready)
  timeline [cycles]        per-scheduler speculation timeline: accuracy,
                           squash-penalty distribution, commit intervals
  attribute [cycles]       simulate, walk the backpressure chain to the
                           bottleneck channel, and cross-check it against
                           the marked-graph critical cycle
  profile [cycles]         evaluation schedule, per-node settle cost and
                           minor words allocated per cycle (fresh engine
                           per call: the report covers this
                           invocation only, not previous runs)
  metrics [cycles]         simulate and print the metrics registry in
                           Prometheus text-exposition format (counters,
                           gauges, histograms over engine / channels /
                           schedulers / faults)
  metrics prom <file> [cycles]   write the Prometheus snapshot to a file
  metrics jsonl <file> [cycles] [window]  windowed JSONL time series
                           (one cumulative snapshot line per window)
  watch [cycles] [every]   live dashboard: simulate and render a frame
                           every [every] cycles (throughput, prediction
                           accuracy, replay penalties, stalls, occupancy)
  mode [reference|arena]   show or pick the evaluation backend used by
                           simulation commands (default: arena)
  cycletime                static cycle-time analysis
  area                     gate-equivalent area
  bound                    marked-graph throughput bound
  critical                 critical cycle of the marked graph
  verify                   exhaustive state exploration (protocol,
                           deadlock, starvation)
  prove [chain]            statically check the bundled certificate
                           chains (fig1b fig1c fig1d vl-slack
                           rs-slack): re-validate every recorded
                           step's side conditions and replay it on the
                           channel graph — zero engine cycles; E4xx
                           diagnostics name the first failing step
  prove jsonl <file>       write every chain's proof as JSONL
                           (schema elastic-speculation/proof/v1)
  equiv <design> [cycles]  co-simulate the loaded netlist against a
                           predefined design and compare sink streams
                           (transfer equivalence, Section 3.1)
  equiv <design> --static  static mode instead: normalize both netlists
                           by confluent empty-buffer removal and compare
                           canonical forms (decides buffer-insertion
                           differences without simulating)
  lint                     static analysis: structural, SELF-invariant
                           and speculation rules (E/W/I codes); fails on
                           error findings (script exit code 1)
  lint <code|slug>         run a single rule (e.g. lint E102, lint
                           comb-cycle)
  lint --fix               apply the machine-applicable fix-its from the
                           report (insert bubble, convert buffer, seed a
                           token); undoable
  lint jsonl <file>        write the report as JSONL
                           (schema elastic-speculation/lint/v1)
  inject <ch> flip <cycle> <bit>       single fault-injection experiments:
  inject <ch> drop|dup|glitch <cycle>  run a faulted engine, classify it
  inject <ch> stall <cycle> [dur]      against a fault-free golden run
  inject <node> mispredict <cycle> <way>
  campaign flips <ch> <n> <seed> [cycles]  seeded single-bit-flip campaign
  campaign storm <n> <seed> [cycles]       flips spread over all channels
                           (sinks named "alarm" act as error detectors:
                           a value >= 2 counts as detection)
  campaign ... --par <n> [--checkpoint <file>] [--serve <port>]
                           shard the campaign over n workers under the
                           supervised runner: crashing shards are
                           isolated with provenance, transient failures
                           retry with seeded backoff, completed shards
                           checkpoint to <file> for resume; --serve
                           exposes live telemetry for this run (or use
                           the serve command for a persistent server)
  serve [port]             start the live telemetry HTTP server on
                           localhost (default port 8080; port 0 picks
                           an ephemeral port): /metrics /status
                           /spans.jsonl /healthz; subsequent campaign
                           --par runs publish progress + heartbeats to
                           it, and a watchdog flips /healthz to 503
                           when a running shard stalls
  serve stop               stop the telemetry server
  runner status <file> [--json]
                           completeness of a campaign checkpoint, plus a
                           per-shard outcome digest (retries, slowest
                           shard, total attempt seconds); --json emits
                           the elastic-speculation/status/v1 document
                           the live /status endpoint also serves
  runner resume <file>     re-run the campaign command stored in the
                           checkpoint, adopting completed shards instead
                           of recomputing them
  spans on [capacity]      record structured spans (campaign -> shard ->
                           attempt -> compile/settle/checkpoint-write/
                           backoff-sleep) during subsequent campaign
                           --par runs, one ring per worker
  spans off                stop recording (the last ledger stays
                           dumpable and exportable)
  spans dump [n]           print the last n recorded spans
  spans jsonl <file>       export the ledger as JSONL
                           (schema elastic-speculation/spans/v1)
  spans chrome <file>      export Chrome trace-event JSON (load in
                           Perfetto / chrome://tracing; one track per
                           worker)
  spans folded <file>      export collapsed stacks for flamegraph.pl
  on-error continue|abort  script mode: report failing lines (with their
                           line numbers) and keep going, or stop at the
                           first error (the default)
  dot <file>               export Graphviz
  verilog <file>           export the elastic controller as Verilog
  blif <file>              export the control network for SIS/ABC
  smv <file>               export a NuSMV control model
  undo / redo              navigate the transformation history
  help                     this text
  quit (or exit)           leave the shell|}

(* Every word [execute_cmd] dispatches on, in help order; the
   help-coverage test keeps this list, the dispatcher and the help text
   consistent. *)
let commands =
  [ "load"; "show"; "candidates"; "bubble"; "buffer"; "remove-buffer";
    "convert"; "fifo"; "retime-fwd"; "retime-bwd"; "shannon"; "early";
    "share"; "speculate"; "save"; "open"; "throughput"; "stats"; "trace";
    "vcd"; "timeline"; "attribute"; "profile"; "metrics"; "watch"; "mode";
    "cycletime"; "area"; "bound"; "critical"; "verify"; "prove"; "equiv";
    "lint"; "inject";
    "campaign"; "serve"; "runner"; "spans"; "on-error"; "dot"; "verilog";
    "blif";
    "smv";
    "undo"; "redo"; "help"; "quit"; "exit" ]

let designs : (string * (unit -> Netlist.t)) list =
  [ ("fig1a", fun () -> (Figures.fig1a ()).Figures.net);
    ("fig1b", fun () -> (Figures.fig1b ()).Figures.net);
    ("fig1c", fun () -> (Figures.fig1c ()).Figures.net);
    ("fig1d", fun () -> (Figures.fig1d ()).Figures.net);
    ("table1", fun () -> (Figures.table1 ()).Figures.t1_net);
    ("vl-stalling",
     fun () ->
       (Examples.vl_stalling
          ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 200))
         .Examples.d_net);
    ("vl-speculative",
     fun () ->
       (Examples.vl_speculative
          ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 200))
         .Examples.d_net);
    ("rs-nonspec",
     fun () ->
       (Examples.rs_nonspeculative
          ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:1 200))
         .Examples.d_net);
    ("rs-spec",
     fun () ->
       (Examples.rs_speculative
          ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:1 200))
         .Examples.d_net);
    ("rs-alarmed",
     fun () ->
       (fst
          (Examples.rs_speculative_alarmed
             ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:1 200)))
         .Examples.d_net) ]

let sched_of_string = function
  | "sticky" -> Some Scheduler.Sticky
  | "toggle" -> Some Scheduler.Toggle
  | "two-bit" -> Some Scheduler.Two_bit
  | "round-robin" -> Some Scheduler.Round_robin
  | "static0" -> Some (Scheduler.Static 0)
  | "static1" -> Some (Scheduler.Static 1)
  | "hinted-replay" -> Some Scheduler.Hinted_replay
  | _ -> None

(* Resolve a node argument: numeric id or node name. *)
let node_arg net s =
  match int_of_string_opt s with
  | Some id ->
    (try Ok (Netlist.node net id).Netlist.id
     with Invalid_argument m -> Error m)
  | None -> (
      match Netlist.find_node net s with
      | Some n -> Ok n.Netlist.id
      | None -> Error (Fmt.str "no node called %S" s))

let channel_arg net s =
  match int_of_string_opt s with
  | Some id ->
    (try Ok (Netlist.channel net id).Netlist.ch_id
     with Invalid_argument m -> Error m)
  | None -> (
      match
        List.find_opt
          (fun (c : Netlist.channel) -> String.equal c.Netlist.ch_name s)
          (Netlist.channels net)
      with
      | Some c -> Ok c.Netlist.ch_id
      | None -> Error (Fmt.str "no channel called %S" s))

let buffer_kind_arg = function
  | "eb" -> Ok Netlist.Eb
  | "eb0" -> Ok Netlist.Eb0
  | s -> Error (Fmt.str "unknown buffer kind %S (eb or eb0)" s)

let with_net s f =
  match s.net with
  | None -> Error "no design loaded (use: load <design>)"
  | Some net -> f net

(* Apply a transformation: push the old design on the undo stack. *)
let transform s f =
  with_net s (fun net ->
      match f net with
      | Ok (net', msg) ->
        s.undo <- net :: s.undo;
        s.redo <- [];
        s.net <- Some net';
        Ok msg
      | Error m -> Error m)

let catch f =
  try f () with
  | Invalid_argument m | Failure m -> Error m
  | Diagnostic.Reject d -> Error (Diagnostic.to_string d)

(* Engines for simulation commands are created fresh per invocation, so
   every report (including [profile]) covers exactly one window.  When
   [trace on] is in effect a tracer rides along on the observer hook and
   is kept for [trace dump] and error reports. *)
let sim_engine s net =
  let eng = Elastic_sim.Engine.create ~mode:s.eval_mode net in
  (match s.trace_capacity with
   | None -> ()
   | Some capacity ->
     s.tracer <- Some (Elastic_trace.Tracer.attach ~capacity eng));
  eng

module Metr = Elastic_metrics

(* A fresh engine run with a metrics sampler attached, beside the tracer
   when [trace on] is in effect. *)
let sampled_run s net ?window ?on_window cycles =
  let eng = sim_engine s net in
  let sampler = Metr.Sampler.attach ?window ?on_window eng in
  Elastic_sim.Engine.run eng cycles;
  (eng, sampler)

(* One dashboard frame: headline rates from the engine, replay-penalty
   quantiles from the metrics snapshot. *)
let watch_frame net eng samples cyc =
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "-- cycle %d %s" cyc (String.make (max 1 (40 - 12)) '-');
  List.iter
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ ->
         line "  sink %-12s %.3f tok/cyc (%d transfers)" n.Netlist.name
           (Elastic_sim.Engine.throughput eng n.Netlist.id)
           (Elastic_kernel.Transfer.length
              (Elastic_sim.Engine.sink_stream eng n.Netlist.id))
       | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
       | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
       | Netlist.Varlat _ -> ())
    (Netlist.nodes net);
  List.iter
    (fun (nid, sched) ->
       let name = (Netlist.node net nid).Netlist.name in
       let serves = Scheduler.serves sched in
       let mispred = Scheduler.mispredictions sched in
       let accuracy =
         if serves = 0 then 1.0
         else
           Float.max 0.0
             (1.0 -. (float_of_int mispred /. float_of_int serves))
       in
       let penalty =
         match
           Metr.Metrics.find samples
             ~labels:[ ("node", name) ]
             "elastic_sched_replay_penalty_cycles"
         with
         | Some (Metr.Metrics.Histogram h)
           when Metr.Histogram.s_count h > 0 ->
           Fmt.str "replay p50/p99 %d/%d"
             (Metr.Histogram.s_quantile h 0.5)
             (Metr.Histogram.s_quantile h 0.99)
         | _ -> "no replays"
       in
       line "  sched %-11s accuracy %.2f  serves %d  squashes %d  %s" name
         accuracy serves mispred penalty)
    (Elastic_sim.Engine.schedulers eng);
  let stalled =
    List.filter_map
      (fun (c : Netlist.channel) ->
         let valid, retry, _ =
           Elastic_sim.Engine.activity eng c.Netlist.ch_id
         in
         if retry = 0 then None
         else
           Some
             (c.Netlist.ch_name,
              float_of_int retry /. float_of_int (max valid 1)))
      (Netlist.channels net)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 3)
  in
  (match stalled with
   | [] -> line "  stalls: none"
   | l ->
     line "  stalls: %s"
       (String.concat "  "
          (List.map (fun (n, r) -> Fmt.str "%s %.3f" n r) l)));
  line "  stored tokens: %d" (Elastic_sim.Engine.stored_tokens eng);
  Buffer.contents b

let throughput_report s net cycles =
  let eng = sim_engine s net in
  Elastic_sim.Engine.run eng cycles;
  let sinks =
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Sink _ ->
           Some
             (Fmt.str "  %s: %.3f tokens/cycle (%d transfers)"
                n.Netlist.name
                (Elastic_sim.Engine.throughput eng n.Netlist.id)
                (Transfer.length
                   (Elastic_sim.Engine.sink_stream eng n.Netlist.id)))
         | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
         | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
         | Netlist.Varlat _ -> None)
      (Netlist.nodes net)
  in
  let violations = Elastic_sim.Engine.violations eng in
  let extra =
    if violations = [] then []
    else
      Fmt.str "  !! %d protocol violations" (List.length violations)
      :: List.map
           (fun (ch, v) -> Fmt.str "     %s: %a" ch Protocol.pp_violation v)
           (List.filteri (fun i _ -> i < 5) violations)
  in
  String.concat "\n"
    ((Fmt.str "simulated %d cycles" cycles :: sinks) @ extra)

(* Sinks named "alarm" are error detectors by convention (see
   [Examples.rs_speculative_alarmed] and [Examples.alarm_tripped]). *)
let alarms_of net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ when String.equal n.Netlist.name "alarm" ->
         Some (n.Netlist.id, Examples.alarm_tripped)
       | _ -> None)
    (Netlist.nodes net)

let int_arg what v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Fmt.str "%s must be an integer, got %S" what v)

(* Every cycle count of a command line goes through here. *)
let cycles_arg v =
  Result.bind (int_arg "cycles" v) (fun c ->
      if c < 0 then Error (Fmt.str "cycles must be >= 0, got %d" c) else Ok c)

(* The optional trailing cycle count of command [cmd]: [default]
   without one, a usage error on extra words. *)
let opt_cycles ?(default = 200) cmd = function
  | [] -> Ok default
  | [ n ] -> cycles_arg n
  | _ -> Error (Fmt.str "usage: %s [cycles]" cmd)

let inject_usage =
  "usage: inject <channel> flip <cycle> <bit> | inject <channel> \
   drop|dup|glitch <cycle> | inject <channel> stall <cycle> [duration] | \
   inject <node> mispredict <cycle> <way>"

let inject_cmd net target kind rest =
  let open Elastic_fault in
  let ( let* ) = Result.bind in
  let* faults =
    match kind, rest with
    | "flip", [ cy; bit ] ->
      let* channel = channel_arg net target in
      let* cycle = int_arg "cycle" cy in
      let* bit = int_arg "bit" bit in
      Ok [ Fault.flip_bit ~channel ~cycle bit ]
    | "drop", [ cy ] ->
      let* channel = channel_arg net target in
      let* cycle = int_arg "cycle" cy in
      Ok [ Fault.drop_token ~channel ~cycle ]
    | "dup", [ cy ] ->
      let* channel = channel_arg net target in
      let* cycle = int_arg "cycle" cy in
      Ok [ Fault.duplicate_token ~channel ~cycle ]
    | "glitch", [ cy ] ->
      let* channel = channel_arg net target in
      let* cycle = int_arg "cycle" cy in
      Ok (Fault.control_glitch ~channel ~cycle)
    | "stall", ([ _ ] | [ _; _ ]) ->
      let* channel = channel_arg net target in
      let* cycle = int_arg "cycle" (List.hd rest) in
      let* duration =
        match rest with
        | [ _; d ] -> int_arg "duration" d
        | _ -> Ok 1
      in
      Ok [ Fault.stuck_stall ~channel ~cycle ~duration ]
    | "mispredict", [ cy; way ] ->
      let* node = node_arg net target in
      let* cycle = int_arg "cycle" cy in
      let* way = int_arg "way" way in
      Ok [ Fault.mispredict ~node ~cycle way ]
    | _ -> Error inject_usage
  in
  let report =
    Recovery.check ~alarms:(alarms_of net) (Recovery.golden_run net) ~faults
  in
  Ok (Fmt.str "%a" Recovery.pp_report report)

let campaign_summary net summary =
  let open Elastic_fault in
  let bad =
    List.filter
      (fun (o : Campaign.outcome) ->
         match o.Campaign.report.Recovery.classification with
         | Recovery.Masked | Recovery.Corrected _ -> false
         | _ -> true)
      summary.Campaign.outcomes
  in
  let detail =
    List.filteri (fun i _ -> i < 5) bad
    |> List.map (fun (o : Campaign.outcome) ->
        Fmt.str "  %a <- %s" Recovery.pp_classification
          o.Campaign.report.Recovery.classification
          (String.concat " + "
             (List.map (Fault.describe net) o.Campaign.faults)))
  in
  let more =
    if List.length bad > 5 then
      [ Fmt.str "  ... and %d more non-benign outcomes"
          (List.length bad - 5) ]
    else []
  in
  String.concat "\n"
    ((Fmt.str "%a" Campaign.pp_summary summary :: detail) @ more)

let campaign_usage =
  "usage: campaign flips <channel> <count> <seed> [cycles] | campaign \
   storm <count> <seed> [cycles] — append --par <workers> \
   [--checkpoint <file>] [--serve <port>] to shard under the \
   supervised runner (with live telemetry)"

(* Split "campaign flips a 20 7 --par 4 --checkpoint f --serve 0" into
   the positional arguments and the runner options (options may appear
   in any order after the positionals they follow). *)
let campaign_options rest =
  let ( let* ) = Result.bind in
  let rec split pos par ckpt serve = function
    | [] -> Ok (List.rev pos, par, ckpt, serve)
    | "--par" :: n :: tail ->
      let* p = int_arg "--par" n in
      if p < 1 then Error "--par must be >= 1"
      else split pos (Some p) ckpt serve tail
    | "--checkpoint" :: f :: tail -> split pos par (Some f) serve tail
    | "--serve" :: p :: tail ->
      let* port = int_arg "--serve" p in
      if port < 0 || port > 65535 then
        Error "--serve port must be in 0..65535 (0 picks an ephemeral \
               port)"
      else split pos par ckpt (Some port) tail
    | ("--par" | "--checkpoint" | "--serve") :: [] -> Error campaign_usage
    | w :: tail -> split (w :: pos) par ckpt serve tail
  in
  split [] None None None rest

(* A sharded campaign under the supervised runner: one task per
   scenario, merged in shard-index order (so the histogram is identical
   to the sequential campaign's at any worker count), with a
   completeness report instead of a silent partial answer. *)
let campaign_par_run s net ~kind ~rest ~par ~ckpt ~serve ~cycles scenarios =
  let module Runner = Elastic_runner.Runner in
  let module Workload = Elastic_runner.Workload in
  let module Telemetry = Elastic_telemetry.Telemetry in
  let ( let* ) = Result.bind in
  let name = Fmt.str "campaign-%s" kind in
  let command = String.concat " " ("campaign" :: kind :: rest) in
  let resume = s.pending_resume in
  s.pending_resume <- None;
  let tasks =
    Workload.of_campaign ~cycles ~settle:60 ~alarms:(alarms_of net) ~name
      net ~scenarios
  in
  let obs =
    Option.map
      (fun capacity_per_track ->
         Elastic_obs.Collector.create ~capacity_per_track ())
      s.spans_capacity
  in
  (* Live telemetry: attach the run to the session's [serve] hub if one
     is up, or stand up an ephemeral server for just this run when
     [--serve] asked for one. *)
  let* hub, ephemeral =
    match serve, s.telemetry with
    | Some _, Some hub ->
      Error
        (Fmt.str
           "telemetry server already on port %d — drop --serve (the \
            campaign publishes there) or serve stop first"
           (Option.value ~default:0 (Telemetry.port hub)))
    | Some port, None -> (
        let hub = Telemetry.create () in
        match Telemetry.start ~port hub with
        | Ok _ -> Ok (Some hub, true)
        | Error m -> Error m)
    | None, Some hub -> Ok (Some hub, false)
    | None, None -> Ok (None, false)
  in
  let progress =
    match hub with
    | None -> None
    | Some hub ->
      let ids =
        Array.of_list
          (List.map (fun (t : Runner.task) -> t.Runner.id) tasks)
      in
      let p = Elastic_runner.Progress.create ~name ~ids () in
      Telemetry.set_progress hub (Some p);
      (match obs with
       | Some c -> Telemetry.set_collector hub (Some c)
       | None -> ());
      Some p
  in
  let serve_lines =
    match hub with
    | Some h when ephemeral ->
      [ Fmt.str "telemetry: served http://127.0.0.1:%d during the run"
          (Option.value ~default:0 (Telemetry.port h)) ]
    | _ -> []
  in
  let clock = Elastic_sim.Clock.monotonic in
  let t0 = clock () in
  let r =
    Fun.protect
      ~finally:(fun () ->
          if ephemeral then Option.iter Telemetry.stop hub)
      (fun () ->
         Runner.run ~workers:par ?checkpoint:ckpt ?resume ?obs
           ?registry:(Option.map Telemetry.registry hub)
           ?progress ~command ~name tasks)
  in
  let wall_seconds = Elastic_sim.Clock.seconds_between t0 (clock ()) in
  let histogram = Workload.classification_histogram r.Runner.r_merged in
  let hist_lines =
    List.map (fun (label, n) -> Fmt.str "  %-20s %d" label n) histogram
  in
  let span_lines =
    match obs with
    | None -> []
    | Some c ->
      s.collector <- Some c;
      let util = Elastic_obs.Collector.utilization c ~wall_seconds in
      Fmt.str "spans: %d recorded (%d dropped) in %.3fs"
        (Elastic_obs.Collector.recorded c)
        (Elastic_obs.Collector.dropped c)
        wall_seconds
      :: List.map
           (fun (w, u) ->
              Fmt.str "  worker %d utilization %5.1f%%" w (100.0 *. u))
           util
  in
  let body =
    (Fmt.str "@[<v>%a@]" Runner.pp_report r :: "classification histogram:"
     :: hist_lines)
    @ span_lines @ serve_lines
    @
    match ckpt with
    | Some f -> [ Fmt.str "checkpoint: %s" f ]
    | None -> []
  in
  Ok (String.concat "\n" body)

let campaign_cmd s net kind rest =
  let open Elastic_fault in
  let ( let* ) = Result.bind in
  let usage = campaign_usage in
  let* positional, par, ckpt, serve = campaign_options rest in
  let* scenarios, cycles =
    match kind, positional with
    | "flips", (ch :: cnt :: seed :: tail) when List.length tail <= 1 ->
      let* channel = channel_arg net ch in
      let* count = int_arg "count" cnt in
      let* seed = int_arg "seed" seed in
      let* cycles =
        match tail with [ c ] -> cycles_arg c | _ -> Ok 300
      in
      Ok
        (Campaign.random_bitflips ~net ~channel ~seed ~count ~from_cycle:2
           ~to_cycle:(max 3 (cycles / 2)) (),
         cycles)
    | "storm", (cnt :: seed :: tail) when List.length tail <= 1 ->
      let* count = int_arg "count" cnt in
      let* seed = int_arg "seed" seed in
      let* cycles =
        match tail with [ c ] -> cycles_arg c | _ -> Ok 300
      in
      Ok
        (Campaign.random_storm ~net ~seed ~count ~from_cycle:2
           ~to_cycle:(max 3 (cycles / 2)),
         cycles)
    | _ -> Error usage
  in
  match par with
  | Some par ->
    campaign_par_run s net ~kind ~rest ~par ~ckpt ~serve ~cycles scenarios
  | None when ckpt <> None ->
    Error "--checkpoint requires --par (the supervised runner)"
  | None when serve <> None ->
    Error "--serve requires --par (the supervised runner)"
  | None ->
    let summary =
      Campaign.run ~cycles ~settle:60 ~alarms:(alarms_of net) net
        ~scenarios
    in
    Ok (campaign_summary net summary)

let rec execute_cmd s line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let ( let* ) = Result.bind in
  match words with
  | [] | "#" :: _ -> Ok ""
  | [ "help" ] -> Ok help
  | [ "mode" ] ->
    Ok (Printf.sprintf "mode: %s" (Elastic_sim.Engine.mode_name s.eval_mode))
  | [ "mode"; name ] -> (
      match Elastic_sim.Engine.mode_of_string name with
      | Some m ->
        s.eval_mode <- m;
        Ok (Printf.sprintf "mode set to %s" (Elastic_sim.Engine.mode_name m))
      | None ->
        Error
          (Printf.sprintf
             "unknown mode %S (expected reference or arena)" name))
  | [ "load"; name ] -> (
      match List.assoc_opt name designs with
      | Some mk ->
        catch (fun () ->
            s.net <- Some (mk ());
            s.design <- name;
            s.undo <- [];
            s.redo <- [];
            Ok (Fmt.str "loaded %s" name))
      | None ->
        Error
          (Fmt.str "unknown design %S (available: %s)" name
             (String.concat ", " (List.map fst designs))))
  | [ "show" ] -> with_net s (fun net -> Ok (Fmt.str "%a" Netlist.pp net))
  | [ "candidates" ] ->
    with_net s (fun net ->
        match Speculation.candidates net with
        | [] -> Ok "no speculation candidates"
        | cs ->
          Ok
            (String.concat "\n"
               (List.map (Fmt.str "  %a" Speculation.pp_candidate) cs)))
  | [ "bubble"; ch ] ->
    transform s (fun net ->
        match channel_arg net ch with
        | Error m -> Error m
        | Ok channel ->
          catch (fun () ->
              let net', b = Transform.insert_bubble net ~channel in
              Ok (net', Fmt.str "inserted bubble node %d" b)))
  | [ "buffer"; ch; kind ] ->
    transform s (fun net ->
        match channel_arg net ch, buffer_kind_arg kind with
        | Error m, _ | _, Error m -> Error m
        | Ok channel, Ok buffer ->
          catch (fun () ->
              let net', b =
                Transform.insert_buffer net ~channel ~buffer ~init:[]
              in
              Ok (net', Fmt.str "inserted %s node %d" kind b)))
  | [ "remove-buffer"; node ] ->
    transform s (fun net ->
        match node_arg net node with
        | Error m -> Error m
        | Ok b ->
          catch (fun () -> Ok (Transform.remove_buffer net b, "removed")))
  | [ "convert"; node; kind ] ->
    transform s (fun net ->
        match node_arg net node, buffer_kind_arg kind with
        | Error m, _ | _, Error m -> Error m
        | Ok b, Ok buffer ->
          catch (fun () ->
              Ok (Transform.convert_buffer net b buffer,
                  Fmt.str "converted node %d to %s" b kind)))
  | [ "retime-fwd"; node ] ->
    transform s (fun net ->
        match node_arg net node with
        | Error m -> Error m
        | Ok f ->
          catch (fun () ->
              let net', b = Transform.retime_forward net ~through:f in
              Ok (net', Fmt.str "moved tokens to new buffer %d" b)))
  | [ "retime-bwd"; node ] ->
    transform s (fun net ->
        match node_arg net node with
        | Error m -> Error m
        | Ok f ->
          catch (fun () ->
              let net', bs = Transform.retime_backward net ~through:f in
              Ok
                (net',
                 Fmt.str "moved empty buffer to inputs [%a]"
                   Fmt.(list ~sep:comma int)
                   bs)))
  | [ "fifo"; ch; depth ] ->
    transform s (fun net ->
        match channel_arg net ch, int_of_string_opt depth with
        | Error m, _ -> Error m
        | _, None -> Error "usage: fifo <channel> <depth>"
        | Ok channel, Some depth ->
          catch (fun () ->
              let net', bs = Transform.insert_fifo net ~channel ~depth in
              Ok (net', Fmt.str "inserted %d buffers" (List.length bs))))
  | [ "shannon"; mux ] ->
    transform s (fun net ->
        match node_arg net mux with
        | Error m -> Error m
        | Ok mux ->
          catch (fun () ->
              let net', copies = Transform.shannon net ~mux in
              Ok
                (net',
                 Fmt.str "duplicated the block into nodes [%a]"
                   Fmt.(list ~sep:comma int)
                   copies)))
  | [ "early"; mux ] ->
    transform s (fun net ->
        match node_arg net mux with
        | Error m -> Error m
        | Ok mux ->
          catch (fun () ->
              Ok (Transform.early_evaluation net ~mux, "early evaluation on")))
  | "share" :: n1 :: n2 :: rest ->
    transform s (fun net ->
        let sched =
          match rest with
          | [] -> Ok Scheduler.Sticky
          | [ sc ] -> (
              match sched_of_string sc with
              | Some sp -> Ok sp
              | None -> Error (Fmt.str "unknown scheduler %S" sc))
          | _ -> Error "usage: share <n1> <n2> [sched]"
        in
        match node_arg net n1, node_arg net n2, sched with
        | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m
        | Ok a, Ok b, Ok sched ->
          catch (fun () ->
              let net', sh = Transform.share net ~blocks:[ a; b ] ~sched in
              Ok (net', Fmt.str "shared into node %d" sh)))
  | "speculate" :: rest ->
    transform s (fun net ->
        let mux, sched =
          match rest with
          | [] -> (None, Scheduler.Sticky)
          | [ m ] -> (
              match sched_of_string m with
              | Some sp -> (None, sp)
              | None -> (Some m, Scheduler.Sticky))
          | [ m; sc ] ->
            (Some m,
             Option.value (sched_of_string sc) ~default:Scheduler.Sticky)
          | _ -> (None, Scheduler.Sticky)
        in
        catch (fun () ->
            let r =
              match mux with
              | None -> Speculation.speculate_auto net ~sched
              | Some m -> (
                  match node_arg net m with
                  | Ok mux -> Speculation.speculate net ~mux ~sched
                  | Error msg -> invalid_arg msg)
            in
            Ok
              (r.Speculation.net,
               Fmt.str "speculation applied: shared module %d, mux %d"
                 r.Speculation.shared r.Speculation.mux)))
  | "stats" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "stats" rest in
        catch (fun () ->
            let eng = sim_engine s net in
            Elastic_sim.Engine.run eng cycles;
            Ok (Fmt.str "%a" Elastic_sim.Stats.pp
                  (Elastic_sim.Stats.collect eng))))
  | "profile" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "profile" rest in
        catch (fun () ->
            let eng = sim_engine s net in
            (* Allocation of the whole run, read around it: the engine
               itself keeps no allocation counter. *)
            let w0 = Gc.minor_words () in
            Elastic_sim.Engine.run eng cycles;
            let words = Gc.minor_words () -. w0 in
            let names =
              Array.of_list
                (List.map
                   (fun (n : Netlist.node) -> n.Netlist.name)
                   (Netlist.nodes net))
            in
            (* The engine (and its profile) is fresh per invocation:
               counters and wall clock cover this window only. *)
            Ok
              (Fmt.str "@[<v>window: this invocation only (%d cycles)@,\
                        minor words/cycle: %.1f@,schedule: %a@,%a@]"
                 cycles
                 (words /. float_of_int (max 1 cycles))
                 Elastic_sim.Schedule.pp_stats
                 (Elastic_sim.Engine.schedule eng)
                 (Elastic_sim.Profile.pp ~name:(fun i -> names.(i)))
                 (Elastic_sim.Engine.profile eng))))
  | "metrics" :: "prom" :: file :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "metrics prom <file>" rest in
        catch (fun () ->
            let eng, sampler = sampled_run s net cycles in
            let text =
              Metr.Prometheus.render (Metr.Sampler.sample sampler eng)
            in
            let oc = open_out file in
            output_string oc text;
            close_out oc;
            Ok (Fmt.str "wrote %s (%d cycles)" file cycles)))
  | "metrics" :: "jsonl" :: file :: rest ->
    with_net s (fun net ->
        let args =
          match rest with
          | [] -> Ok (200, 50)
          | [ n ] ->
            Result.map (fun c -> (c, 50)) (cycles_arg n)
          | [ n; w ] ->
            Result.bind (cycles_arg n) (fun c ->
                Result.map (fun w -> (c, w)) (int_arg "window" w))
          | _ -> Error "usage: metrics jsonl <file> [cycles] [window]"
        in
        match args with
        | Error m -> Error m
        | Ok (_, w) when w < 1 -> Error "window must be >= 1"
        | Ok (cycles, window) ->
          catch (fun () ->
              let buf = Buffer.create 4096 in
              let rows = ref 0 in
              let on_window r =
                incr rows;
                Buffer.add_string buf (Metr.Sampler.jsonl_of_row r);
                Buffer.add_char buf '\n'
              in
              let _eng, _sampler =
                sampled_run s net ~window ~on_window cycles
              in
              let oc = open_out file in
              Buffer.output_buffer oc buf;
              close_out oc;
              Ok
                (Fmt.str "wrote %s (%d cycles, %d windows of %d)" file
                   cycles !rows window)))
  | "metrics" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "metrics" rest in
        catch (fun () ->
            let eng, sampler = sampled_run s net cycles in
            Ok
              (Fmt.str "# simulated %d cycles@.%s" cycles
                 (Metr.Prometheus.render
                    (Metr.Sampler.sample sampler eng)))))
  | "watch" :: rest ->
    with_net s (fun net ->
        let args =
          match rest with
          | [] -> Ok (200, 50)
          | [ n ] ->
            Result.map (fun c -> (c, 50)) (cycles_arg n)
          | [ n; w ] ->
            Result.bind (cycles_arg n) (fun c ->
                Result.map (fun w -> (c, w)) (int_arg "every" w))
          | _ -> Error "usage: watch [cycles] [every]"
        in
        match args with
        | Error m -> Error m
        | Ok (_, every) when every < 1 -> Error "every must be >= 1"
        | Ok (cycles, every) ->
          catch (fun () ->
              let eng = sim_engine s net in
              let frames = Buffer.create 1024 in
              let on_window (r : Metr.Sampler.row) =
                Buffer.add_string frames
                  (watch_frame net eng r.Metr.Sampler.r_samples
                     r.Metr.Sampler.r_cycle)
              in
              ignore (Metr.Sampler.attach ~window:every ~on_window eng);
              Elastic_sim.Engine.run eng cycles;
              Ok
                (Fmt.str "%swatched %d cycles (frame every %d)"
                   (Buffer.contents frames) cycles every)))
  | "trace" :: "on" :: rest -> (
      let capacity =
        match rest with
        | [] -> Ok 65536
        | [ c ] -> int_arg "capacity" c
        | _ -> Error "usage: trace on [capacity]"
      in
      match capacity with
      | Error m -> Error m
      | Ok c when c < 1 -> Error "capacity must be >= 1"
      | Ok capacity ->
        s.trace_capacity <- Some capacity;
        Ok
          (Fmt.str
             "tracing on (ring capacity %d events); simulation commands \
              now record events (dump with: trace dump)"
             capacity))
  | [ "trace"; "off" ] ->
    s.trace_capacity <- None;
    Ok "tracing off (the last recorded trace is still dumpable)"
  | "trace" :: "dump" :: rest ->
    with_net s (fun net ->
        let limit =
          match rest with
          | [] -> Ok 40
          | [ n ] -> int_arg "count" n
          | _ -> Error "usage: trace dump [n]"
        in
        match limit, s.tracer with
        | Error m, _ -> Error m
        | Ok _, None ->
          Error
            "no trace recorded (use: trace on, then a simulation command \
             such as throughput, stats or timeline)"
        | Ok limit, Some tr ->
          catch (fun () ->
              let evs = Elastic_trace.Tracer.recent ~limit tr in
              let head =
                Fmt.str "%d events recorded (%d dropped), last %d:"
                  (Elastic_trace.Tracer.recorded tr)
                  (Elastic_trace.Tracer.dropped tr)
                  (List.length evs)
              in
              Ok
                (String.concat "\n"
                   (head
                    :: List.map
                         (Fmt.str "  %a" (Elastic_trace.Event.pp net))
                         evs))))
  | "spans" :: "on" :: rest -> (
      let capacity =
        match rest with
        | [] -> Ok 8192
        | [ c ] -> int_arg "capacity" c
        | _ -> Error "usage: spans on [capacity]"
      in
      match capacity with
      | Error m -> Error m
      | Ok c when c < 1 -> Error "capacity must be >= 1"
      | Ok capacity ->
        s.spans_capacity <- Some capacity;
        Ok
          (Fmt.str
             "spans on (per-worker ring capacity %d); campaign --par \
              runs now record a span ledger (dump with: spans dump)"
             capacity))
  | [ "spans"; "off" ] ->
    s.spans_capacity <- None;
    Ok "spans off (the last recorded ledger is still exportable)"
  | "spans" :: "dump" :: rest -> (
      let limit =
        match rest with
        | [] -> Ok 40
        | [ n ] -> int_arg "count" n
        | _ -> Error "usage: spans dump [n]"
      in
      match limit, s.collector with
      | Error m, _ -> Error m
      | Ok _, None ->
        Error
          "no spans recorded (use: spans on, then campaign ... --par)"
      | Ok limit, Some c ->
        catch (fun () ->
            let spans = Elastic_obs.Collector.spans c in
            let total = List.length spans in
            let skip = max 0 (total - limit) in
            let tail = List.filteri (fun i _ -> i >= skip) spans in
            let base_ns = Elastic_obs.Export.base_ns spans in
            let head =
              Fmt.str "%d spans recorded (%d dropped), last %d:"
                (Elastic_obs.Collector.recorded c)
                (Elastic_obs.Collector.dropped c)
                (List.length tail)
            in
            Ok
              (String.concat "\n"
                 (head
                  :: List.map
                       (Fmt.str "  %a" (Elastic_obs.Span.pp ~base_ns))
                       tail))))
  | [ "spans"; ("jsonl" | "chrome" | "folded") as fmt; file ] -> (
      match s.collector with
      | None ->
        Error
          "no spans recorded (use: spans on, then campaign ... --par)"
      | Some c ->
        catch (fun () ->
            let spans = Elastic_obs.Collector.spans c in
            (match fmt with
             | "jsonl" ->
               Elastic_obs.Export.write_jsonl ~path:file
                 ~campaign:s.design spans
             | "chrome" ->
               Elastic_obs.Export.write_chrome ~path:file spans
             | _ -> Elastic_obs.Export.write_folded ~path:file spans);
            Ok
              (Fmt.str "wrote %d spans to %s (%s)" (List.length spans)
                 file fmt)))
  | "spans" :: _ ->
    Error
      "usage: spans on [capacity] | spans off | spans dump [n] | spans \
       jsonl <file> | spans chrome <file> | spans folded <file>"
  | "vcd" :: file :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "vcd <file>" rest in
        catch (fun () ->
            let eng = sim_engine s net in
            let rc = Elastic_trace.Vcd.create net in
            Elastic_sim.Engine.add_observer eng
              (Elastic_trace.Vcd.observe rc);
            Elastic_sim.Engine.run eng cycles;
            Elastic_trace.Vcd.save file rc;
            Ok
              (Fmt.str "wrote %s (%d cycles, %d channels)" file cycles
                 (List.length (Netlist.channels net)))))
  | [ "vcd" ] -> Error "usage: vcd <file> [cycles]"
  | "timeline" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "timeline" rest in
        catch (fun () ->
            let eng = Elastic_sim.Engine.create ~mode:s.eval_mode net in
            let tr = Elastic_trace.Tracer.attach eng in
            s.tracer <- Some tr;
            Elastic_sim.Engine.run eng cycles;
            match
              Elastic_trace.Timeline.analyze
                (Elastic_trace.Tracer.events tr)
            with
            | [] -> Ok "no speculation schedulers in the design"
            | tls ->
              Ok (Fmt.str "%a" (Elastic_trace.Timeline.pp net) tls)))
  | "attribute" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "attribute" rest in
        catch (fun () ->
            let eng = sim_engine s net in
            Elastic_sim.Engine.run eng cycles;
            Ok
              (Fmt.str "%a" Elastic_trace.Attribution.pp
                 (Elastic_trace.Attribution.analyze eng))))
  | "trace" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles ~default:8 "trace" rest in
        catch (fun () ->
            let eng = sim_engine s net in
            let cell (sg : Signal.t) =
              if sg.Signal.v_minus then "  -"
              else if sg.Signal.v_plus then
                (match sg.Signal.data with
                 | Some v ->
                   let t = Value.to_string v in
                   if String.length t > 3 then
                     " " ^ String.sub t 0 2
                   else Fmt.str "%3s" t
                 | None -> "  ?")
              else "  *"
            in
            let rows =
              List.map
                (fun (c : Netlist.channel) -> (c.Netlist.ch_name, ref []))
                (Netlist.channels net)
            in
            for _ = 1 to cycles do
              Elastic_sim.Engine.step eng;
              List.iter2
                (fun (c : Netlist.channel) (_, cells) ->
                   cells :=
                     cell (Elastic_sim.Engine.signal eng c.Netlist.ch_id)
                     :: !cells)
                (Netlist.channels net) rows
            done;
            Ok
              (String.concat "\n"
                 (List.map
                    (fun (name, cells) ->
                       Fmt.str "%-30s%s" name
                         (String.concat "" (List.rev !cells)))
                    rows))))
  | "throughput" :: rest ->
    with_net s (fun net ->
        let* cycles = opt_cycles "throughput" rest in
        catch (fun () -> Ok (throughput_report s net cycles)))
  | [ "cycletime" ] ->
    with_net s (fun net ->
        match Timing.analyze net with
        | Ok r -> Ok (Fmt.str "%a" Timing.pp_report r)
        | Error m -> Error m)
  | [ "area" ] ->
    with_net s (fun net ->
        Ok (Fmt.str "total area: %.1f gate equivalents" (Area.total net)))
  | [ "bound" ] ->
    with_net s (fun net ->
        catch (fun () ->
            Ok
              (Fmt.str "marked-graph throughput bound: %.3f"
                 (Elastic_perf.Marked_graph.throughput_bound net))))
  | [ "critical" ] ->
    with_net s (fun net ->
        catch (fun () ->
            match Elastic_perf.Marked_graph.critical_cycle net with
            | Some c ->
              Ok (Fmt.str "%a" Elastic_perf.Marked_graph.pp_cycle c)
            | None -> Ok "no token-bearing cycle (feed-forward design)"))
  | [ "verify" ] ->
    with_net s (fun net ->
        catch (fun () ->
            let o = Elastic_check.Explore.explore net in
            let verdict =
              if Elastic_check.Explore.clean o then "VERIFIED"
              else if
                o.Elastic_check.Explore.protocol_violations = []
                && o.Elastic_check.Explore.deadlock_states = []
                && o.Elastic_check.Explore.starving_channels = []
              then
                "BOUNDED: state cap reached with no violations (the design \
                 has unbounded sources; use Nondet sources for an \
                 exhaustive check)"
              else "PROBLEMS FOUND"
            in
            Ok
              (Fmt.str "%a@.%s" Elastic_check.Explore.pp_outcome o verdict)))
  | [ "prove" ] ->
    catch (fun () ->
        let results =
          List.map (fun c -> (c, Derivations.verify c)) (Derivations.all ())
        in
        let render ((c : Derivations.chain), r) =
          match r with
          | Ok p -> Fmt.str "%a" Elastic_check.Flow.pp_proof p
          | Error d ->
            Fmt.str "%s: REFUTED %s" c.Derivations.c_name
              (Diagnostic.to_string d)
        in
        let text = String.concat "\n" (List.map render results) in
        if List.for_all (fun (_, r) -> Result.is_ok r) results then Ok text
        else Error text)
  | [ "prove"; "jsonl"; file ] ->
    catch (fun () ->
        let chains = Derivations.all () in
        let oc = open_out file in
        List.iter
          (fun (c : Derivations.chain) ->
             output_string oc
               (Elastic_check.Flow.jsonl ~design:c.Derivations.c_name
                  ~cert:c.Derivations.c_cert (Derivations.verify c)))
          chains;
        close_out oc;
        Ok (Fmt.str "wrote %s (%d chains)" file (List.length chains)))
  | [ "prove"; name ] ->
    catch (fun () ->
        match Derivations.find name with
        | None ->
          Error
            (Fmt.str "unknown chain %S (available: %s)" name
               (String.concat ", "
                  (List.map
                     (fun (c : Derivations.chain) -> c.Derivations.c_name)
                     (Derivations.all ()))))
        | Some c -> (
            match Derivations.verify c with
            | Ok p ->
              Ok
                (Fmt.str "%s@.%a" c.Derivations.c_describe
                   Elastic_check.Flow.pp_proof p)
            | Error d -> Error (Diagnostic.to_string d)))
  | [ "equiv" ] -> Error "usage: equiv <design> [--static|cycles]"
  | "equiv" :: design :: rest ->
    with_net s (fun net ->
        match List.assoc_opt design designs with
        | None ->
          Error
            (Fmt.str "unknown design %S (available: %s)" design
               (String.concat ", " (List.map fst designs)))
        | Some build ->
          catch (fun () ->
              let other = build () in
              let tag = Fmt.str "%s-vs-%s" s.design design in
              match rest with
              | [ "--static" ] -> (
                  match
                    Elastic_check.Flow.equiv_static ~design:tag net other
                  with
                  | Ok p -> Ok (Fmt.str "%a" Elastic_check.Flow.pp_proof p)
                  | Error d -> Error (Diagnostic.to_string d))
              | [] | [ _ ] -> (
                  match
                    match rest with
                    | [] -> Some 300
                    | [ c ] -> int_of_string_opt c
                    | _ -> None
                  with
                  | None -> Error "usage: equiv <design> [--static|cycles]"
                  | Some cycles -> (
                      match Equiv.check ~cycles net other with
                      | Ok r ->
                        Ok
                          (Fmt.str
                             "transfer equivalent over %d cycles: %s"
                             r.Equiv.cycles
                             (String.concat ", "
                                (List.map
                                   (fun (n, a, b) ->
                                      Fmt.str "%s %d/%d" n a b)
                                   r.Equiv.transfers)))
                      | Error m -> Error m))
              | _ -> Error "usage: equiv <design> [--static|cycles]"))
  | [ "lint" ] ->
    with_net s (fun net ->
        let report = Elastic_lint.Lint.run net in
        let text = Elastic_lint.Lint.render report in
        (* Error findings fail the command, so scripts (and the CI lint
           gate) exit nonzero on a broken design. *)
        if Elastic_lint.Lint.clean report then Ok text else Error text)
  | [ "lint"; "--fix" ] ->
    transform s (fun net ->
        let report = Elastic_lint.Lint.run net in
        let net', n = Elastic_lint.Lint.apply_fixes net report in
        if n = 0 then Error "no machine-applicable fixes in the lint report"
        else
          Ok (net', Fmt.str "applied %d fix(es); lint again to re-check" n))
  | [ "lint"; "jsonl"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            let report = Elastic_lint.Lint.run net in
            let oc = open_out file in
            output_string oc
              (Elastic_lint.Lint.jsonl ~design:s.design net report);
            close_out oc;
            Ok
              (Fmt.str "wrote %s (%d diagnostics)" file
                 (List.length report.Elastic_lint.Lint.diags))))
  | [ "lint"; rule ] ->
    with_net s (fun net ->
        match Elastic_lint.Lint.find_rule rule with
        | None ->
          Error
            (Fmt.str "unknown lint rule %S (a code such as E102 or a slug \
                      such as comb-cycle)"
               rule)
        | Some _ ->
          let report = Elastic_lint.Lint.run ~only:[ rule ] net in
          let text = Elastic_lint.Lint.render report in
          if Elastic_lint.Lint.clean report then Ok text else Error text)
  | [ "save"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            Serial.save file net;
            Ok (Fmt.str "wrote %s" file)))
  | [ "open"; file ] -> (
      match Serial.load file with
      | Ok net ->
        s.net <- Some net;
        s.design <- Filename.remove_extension (Filename.basename file);
        s.undo <- [];
        s.redo <- [];
        Ok (Fmt.str "opened %s" file)
      | Error m -> Error m)
  | [ "dot"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            Dot.save file net;
            Ok (Fmt.str "wrote %s" file)))
  | [ "verilog"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            Verilog.save file ~top:"elastic_top" net;
            Ok (Fmt.str "wrote %s" file)))
  | [ "blif"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            Blif.save file ~model:"elastic_ctrl" net;
            Ok (Fmt.str "wrote %s" file)))
  | [ "smv"; file ] ->
    with_net s (fun net ->
        catch (fun () ->
            Smv.save file net;
            Ok (Fmt.str "wrote %s" file)))
  | [ "undo" ] -> (
      match s.undo, s.net with
      | prev :: rest, Some cur ->
        s.undo <- rest;
        s.redo <- cur :: s.redo;
        s.net <- Some prev;
        Ok "undone"
      | _, _ -> Error "nothing to undo")
  | [ "redo" ] -> (
      match s.redo, s.net with
      | next :: rest, Some cur ->
        s.redo <- rest;
        s.undo <- cur :: s.undo;
        s.net <- Some next;
        Ok "redone"
      | _, _ -> Error "nothing to redo")
  | "inject" :: target :: kind :: rest ->
    with_net s (fun net -> inject_cmd net target kind rest)
  | [ "inject" ] | [ "inject"; _ ] -> Error inject_usage
  | "campaign" :: kind :: rest ->
    with_net s (fun net -> campaign_cmd s net kind rest)
  | [ "campaign" ] -> Error campaign_usage
  | [ "serve"; "stop" ] -> (
      match s.telemetry with
      | None -> Error "no telemetry server running"
      | Some hub ->
        Elastic_telemetry.Telemetry.stop hub;
        s.telemetry <- None;
        Ok "telemetry server stopped")
  | [ "serve" ] | [ "serve"; _ ] -> (
      let module Telemetry = Elastic_telemetry.Telemetry in
      match
        match words with
        | [ _; p ] -> int_arg "port" p
        | _ -> Ok 8080
      with
      | Error m -> Error m
      | Ok port when port < 0 || port > 65535 ->
        Error "port must be in 0..65535 (0 picks an ephemeral port)"
      | Ok port -> (
          match s.telemetry with
          | Some hub ->
            Error
              (Fmt.str "telemetry server already on port %d (serve stop \
                        first)"
                 (Option.value ~default:0 (Telemetry.port hub)))
          | None -> (
              let hub = Telemetry.create () in
              (* Expose whatever span ledger the session already has. *)
              (match s.collector with
               | Some c -> Telemetry.set_collector hub (Some c)
               | None -> ());
              match Telemetry.start ~port hub with
              | Error m -> Error m
              | Ok bound ->
                s.telemetry <- Some hub;
                Ok
                  (Fmt.str
                     "telemetry server on http://127.0.0.1:%d — \
                      /metrics /status /spans.jsonl /healthz (campaign \
                      --par runs publish live progress here)"
                     bound))))
  | [ "runner"; "status"; file ] -> (
      match Elastic_runner.Checkpoint.load file with
      | Ok cp -> Ok (Fmt.str "%a" Elastic_runner.Checkpoint.pp_status cp)
      | Error m -> Error (Fmt.str "%s: %s" file m))
  | [ "runner"; "status"; file; "--json" ] -> (
      (* The same elastic-speculation/status/v1 document the live
         /status endpoint serves, derived from the checkpoint. *)
      match Elastic_runner.Checkpoint.load file with
      | Ok cp ->
        Ok
          (Elastic_metrics.Json.to_string
             (Elastic_runner.Status.of_checkpoint cp))
      | Error m -> Error (Fmt.str "%s: %s" file m))
  | [ "runner"; "resume"; file ] -> (
      match Elastic_runner.Checkpoint.load file with
      | Error m -> Error (Fmt.str "%s: %s" file m)
      | Ok cp -> (
          match cp.Elastic_runner.Checkpoint.header.command with
          | None ->
            Error
              (Fmt.str
                 "%s records no command to resume (it was written by an \
                  embedding, not the shell)"
                 file)
          | Some cmd ->
            s.pending_resume <- Some cp;
            Fun.protect
              ~finally:(fun () -> s.pending_resume <- None)
              (fun () -> execute_cmd s cmd)))
  | "runner" :: _ ->
    Error
      "usage: runner status <checkpoint> [--json] | runner resume \
       <checkpoint>"
  | [ "on-error"; "continue" ] ->
    s.on_error_continue <- true;
    Ok "scripts now continue past failing lines (reported per line)"
  | [ "on-error"; "abort" ] ->
    s.on_error_continue <- false;
    Ok "scripts now stop at the first failing line"
  | "on-error" :: _ -> Error "usage: on-error continue|abort"
  | [ "quit" ] | [ "exit" ] -> Ok "bye"
  | w :: _ when List.mem w commands ->
    (* a known command that fell through its argument patterns *)
    Error (Fmt.str "command %S: bad or missing arguments (try: help)" w)
  | w :: _ -> Error (Fmt.str "unknown command %S (try: help)" w)

(* A structured simulation error, enriched — when a trace was being
   recorded — with the last events seen on the offending channels (the
   named channel, or the channels incident to the named node), so
   deadlock diagnosis doesn't require a rerun. *)
let simulation_error_report s (e : Elastic_sim.Engine.error) =
  let base = Elastic_sim.Engine.error_to_string e in
  match s.tracer, s.net with
  | Some tr, Some net -> (
      try
        let channels =
          match
            e.Elastic_sim.Engine.err_channel, e.Elastic_sim.Engine.err_node
          with
          | Some channel, _ -> [ channel ]
          | None, Some node ->
            List.map
              (fun (c : Netlist.channel) -> c.Netlist.ch_id)
              (Netlist.incoming net node @ Netlist.outgoing net node)
          | None, None -> []
        in
        let evs =
          List.concat_map
            (fun channel ->
               Elastic_trace.Tracer.recent ~limit:4 ~channel tr)
            channels
          |> List.sort (fun (a : Elastic_trace.Event.t) b ->
              compare a.Elastic_trace.Event.ev_cycle
                b.Elastic_trace.Event.ev_cycle)
        in
        match evs with
        | [] -> base
        | evs ->
          Fmt.str "%s@.last traced events on the offending channels:@.%a"
            base
            Fmt.(
              list ~sep:cut (fun ppf ev ->
                  pf ppf "  %a" (Elastic_trace.Event.pp net) ev))
            evs
      with Invalid_argument _ -> base)
  | _, _ -> base

(* The interpreter is an interactive trust boundary: whatever a command
   raises — including structured simulation errors from a fault
   experiment gone wrong — must come back as [Error], never kill the
   session. *)
let execute s line =
  try execute_cmd s line with
  | Invalid_argument m | Failure m -> Error m
  | Diagnostic.Reject d -> Error (Diagnostic.to_string d)
  | Elastic_sim.Engine.Simulation_error e ->
    Error (simulation_error_report s e)
  | Out_of_memory | Stack_overflow as e -> raise e
  | e -> Error (Printexc.to_string e)

let run_script s lines =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match execute s line with
        | Ok out ->
          go (if out = "" then acc else out :: acc) (lineno + 1) rest
        | Error m when s.on_error_continue ->
          (* Same line-number provenance as abort mode, but the script
             keeps going and the failure becomes part of the output. *)
          go
            (Fmt.str "error: line %d: %S: %s" lineno line m :: acc)
            (lineno + 1) rest
        | Error m -> Error (Fmt.str "line %d: %S: %s" lineno line m))
  in
  go [] 1 lines
