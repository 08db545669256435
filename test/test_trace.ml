open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_core
open Elastic_datapath
open Elastic_trace
open Helpers

(* The observability layer (lib/trace): golden VCD for the Table 1
   system, counter reconstruction from the event stream, stall
   attribution against the marked-graph critical cycle, speculation
   timelines, the shell surface and the zero-overhead guard for the
   observer-disabled hot path. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let table1_net () = (Figures.table1 ()).Figures.t1_net

let traced_run ?(capacity = 1_000_000) ?mode net cycles =
  let eng = Elastic_sim.Engine.create ?mode net in
  let tr = Tracer.attach ~capacity eng in
  Elastic_sim.Engine.run eng cycles;
  (eng, tr)

(* --- golden VCD (Table 1 system, byte-exact) ----------------------- *)

let test_vcd_header_golden () =
  let expected = read_file "table1.vcd.expected" in
  let header = Vcd.header (table1_net ()) in
  Alcotest.(check bool) "header is a prefix of the golden dump" true
    (String.length header <= String.length expected
     && String.equal (String.sub expected 0 (String.length header)) header);
  Alcotest.(check bool) "header is deterministic (no wall clock)" true
    (Helpers.contains header "(deterministic)")

let test_vcd_contents_golden () =
  let net = table1_net () in
  let eng = Elastic_sim.Engine.create net in
  let r = Vcd.create net in
  Elastic_sim.Engine.set_observer eng (Some (Vcd.observe r));
  Elastic_sim.Engine.run eng 8;
  Alcotest.(check string) "first 8 cycles byte-exact"
    (read_file "table1.vcd.expected")
    (Vcd.contents r)

(* Structural well-formedness, standing in for an external viewer: every
   value change references a declared identifier code, timestamps are
   strictly increasing, and vectors are binary. *)
let test_vcd_well_formed () =
  let net = table1_net () in
  let eng = Elastic_sim.Engine.create net in
  let r = Vcd.create net in
  Elastic_sim.Engine.set_observer eng (Some (Vcd.observe r));
  Elastic_sim.Engine.run eng 40;
  let lines = String.split_on_char '\n' (Vcd.contents r) in
  let ids = Hashtbl.create 64 in
  let in_defs = ref true in
  let last_ts = ref (-1) in
  List.iter
    (fun line ->
       let words =
         String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
       in
       match words with
       | [ "$var"; "wire"; _; id; _; "$end" ] -> Hashtbl.replace ids id ()
       | [ "$enddefinitions"; "$end" ] -> in_defs := false
       | _ when !in_defs -> ()
       | [] | [ "$dumpvars" ] | [ "$end" ] -> ()
       | [ ts ] when String.length ts > 1 && ts.[0] = '#' ->
         let t = int_of_string (String.sub ts 1 (String.length ts - 1)) in
         Alcotest.(check bool) "timestamps increase" true (t > !last_ts);
         last_ts := t
       | [ bits; id ] when String.length bits > 1 && bits.[0] = 'b' ->
         Alcotest.(check bool) ("declared vector id " ^ id) true
           (Hashtbl.mem ids id);
         String.iter
           (fun c ->
              Alcotest.(check bool) "binary digit" true
                (c = '0' || c = '1' || c = 'x'))
           (String.sub bits 1 (String.length bits - 1))
       | [ change ] when String.length change >= 2 ->
         let id = String.sub change 1 (String.length change - 1) in
         Alcotest.(check bool) "scalar value" true
           (change.[0] = '0' || change.[0] = '1' || change.[0] = 'x');
         Alcotest.(check bool) ("declared scalar id " ^ id) true
           (Hashtbl.mem ids id)
       | _ -> Alcotest.failf "unrecognized VCD line %S" line)
    lines;
  Alcotest.(check int) "final timestamp is the cycle count" 40 !last_ts

(* --- event fold reconstructs the engine counters ------------------- *)

let check_reconstruction ?mode net cycles =
  let eng, tr = traced_run ?mode net cycles in
  if Tracer.dropped tr > 0 then
    Alcotest.failf "ring dropped %d events; raise the capacity"
      (Tracer.dropped tr);
  let counts = Event.counts (Tracer.events tr) in
  let stats = Elastic_sim.Stats.collect eng in
  List.iter2
    (fun (c : Netlist.channel) (cs : Elastic_sim.Stats.channel_stats) ->
       let id = c.Netlist.ch_id in
       let where = Fmt.str "channel %s" c.Netlist.ch_name in
       Alcotest.(check int) (where ^ " delivered")
         cs.Elastic_sim.Stats.cs_delivered (Event.delivered counts id);
       Alcotest.(check int) (where ^ " killed")
         cs.Elastic_sim.Stats.cs_killed (Event.killed counts id);
       Alcotest.(check int) (where ^ " retry")
         cs.Elastic_sim.Stats.cs_retry_cycles (Event.retries counts id);
       Alcotest.(check int) (where ^ " anti")
         cs.Elastic_sim.Stats.cs_anti_cycles (Event.antis counts id))
    (Netlist.channels net) stats.Elastic_sim.Stats.channels;
  List.iter
    (fun (nid, sch) ->
       Alcotest.(check int) "scheduler serves" (Scheduler.serves sch)
         (Event.serves counts nid);
       Alcotest.(check int) "scheduler mispredictions"
         (Scheduler.mispredictions sch)
         (Event.mispredictions counts nid))
    (Elastic_sim.Engine.schedulers eng)

let test_reconstruction_fixed () =
  List.iter
    (fun mode ->
       check_reconstruction ~mode (table1_net ()) 60;
       let ops = Alu.operands ~error_rate_pct:10 ~seed:7 60 in
       check_reconstruction ~mode (Examples.vl_speculative ~ops).Examples.d_net
         150;
       let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:7 60 in
       check_reconstruction ~mode (Examples.rs_speculative ~ops).Examples.d_net
         150)
    [ Elastic_sim.Engine.Arena; Elastic_sim.Engine.Reference ]

type recon_spec = {
  rs_design : int;
  rs_param : int;
  rs_seed : int;
  rs_cycles : int;
  rs_arena : bool;
}

let gen_recon =
  let open QCheck.Gen in
  let* rs_design = int_bound 2 in
  let* rs_param = int_bound 100 in
  let* rs_seed = int_bound 1000 in
  let* rs_cycles = int_range 5 120 in
  let* rs_arena = bool in
  return { rs_design; rs_param; rs_seed; rs_cycles; rs_arena }

let print_recon r =
  Fmt.str "design=%d param=%d seed=%d cycles=%d mode=%s" r.rs_design
    r.rs_param r.rs_seed r.rs_cycles
    (if r.rs_arena then "arena" else "reference")

let recon_net r =
  match r.rs_design with
  | 0 ->
    (Figures.fig1d
       ~sched:
         (Scheduler.Noisy_oracle
            { sel = Figures.default_params.Figures.sel;
              accuracy_pct = max 1 r.rs_param;
              seed = r.rs_seed })
       ())
      .Figures.net
  | 1 ->
    let ops =
      Alu.operands ~error_rate_pct:(r.rs_param mod 50) ~seed:r.rs_seed 40
    in
    (Examples.vl_speculative ~ops).Examples.d_net
  | _ ->
    let ops =
      Examples.rs_ops ~error_rate_pct:(r.rs_param mod 50) ~seed:r.rs_seed 40
    in
    (Examples.rs_speculative ~ops).Examples.d_net

let reconstruction_prop =
  QCheck.Test.make ~name:"qcheck: event fold reconstructs Stats.collect"
    ~count:60
    (QCheck.make ~print:print_recon gen_recon)
    (fun r ->
       let mode =
         if r.rs_arena then Elastic_sim.Engine.Arena
         else Elastic_sim.Engine.Reference
       in
       check_reconstruction ~mode (recon_net r) r.rs_cycles;
       true)

(* --- occupancy events chain consistently --------------------------- *)

let test_occupancy_chain () =
  (* A stalling sink makes the buffer fill and drain, so occupancy
     actually moves (the Table 1 loop sits in a steady state and never
     changes occupancy after reset). *)
  let b = builder () in
  let s0 = src_counter b ~name:"src" () in
  let e = eb b ~name:"buf" () in
  let k = sink_pattern b ~name:"out" [| false; true; true |] in
  let _ = conn b (s0, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (k, In 0) in
  let _, tr = traced_run b.net 60 in
  let last = Hashtbl.create 8 in
  let seen = ref 0 in
  List.iter
    (fun (e : Event.t) ->
       match e.Event.ev_subject, e.Event.ev_kind with
       | Event.Node nid, Event.Occupancy { before; after } ->
         incr seen;
         (match Hashtbl.find_opt last nid with
          | Some prev ->
            Alcotest.(check int) "occupancy chains" prev before
          | None -> ());
         Alcotest.(check bool) "occupancy changed" true (before <> after);
         Hashtbl.replace last nid after
       | _ -> ())
    (Tracer.events tr);
  Alcotest.(check bool) "saw occupancy changes" true (!seen > 0)

(* --- stall attribution vs the marked graph ------------------------- *)

(* The Table 1 system has a token-bearing critical cycle through the
   early-evaluation mux; the dynamically attributed bottleneck must lie
   on it (acceptance criterion of the attribution pass). *)
let test_attribution_table1 () =
  let eng = run_net ~cycles:200 (table1_net ()) in
  let at = Attribution.analyze eng in
  Alcotest.(check bool) "critical cycle found" true
    (at.Attribution.at_critical <> None);
  (match at.Attribution.at_root with
   | None -> Alcotest.fail "no bottleneck attributed"
   | Some root ->
     Alcotest.(check bool) "root has retries" true
       (root.Attribution.al_retry > 0));
  Alcotest.(check bool) "root lies on the critical cycle" true
    at.Attribution.at_root_on_critical

(* The §5.1 variable-latency designs are feed-forward: the marked graph
   has no token-bearing cycle, and the attribution agrees by blaming the
   variable-latency stage (6(a)) / the shared speculative stage (6(b))
   intrinsically rather than a loop. *)
let test_attribution_vl () =
  let ops = Alu.operands ~error_rate_pct:10 ~seed:1 200 in
  let check_d net what =
    Alcotest.(check bool) "feed-forward: no critical cycle" true
      (Elastic_perf.Marked_graph.critical_cycle net = None);
    let eng = run_net ~cycles:400 net in
    let at = Attribution.analyze eng in
    (match at.Attribution.at_cause with
     | Attribution.Intrinsic got ->
       Alcotest.(check string) "intrinsic staller" what got
     | Attribution.Loop -> Alcotest.fail "unexpected loop cause"
     | Attribution.No_stall -> Alcotest.fail "expected stalls")
  in
  check_d (Examples.vl_stalling ~ops).Examples.d_net
    "variable-latency stage";
  let ops = Alu.operands ~error_rate_pct:10 ~seed:1 200 in
  check_d (Examples.vl_speculative ~ops).Examples.d_net
    "shared-module arbitration"

let test_attribution_no_stall () =
  let h = Figures.fig1d () in
  let eng = run_net ~cycles:200 h.Figures.net in
  let at = Attribution.analyze eng in
  Alcotest.(check bool) "source-limited run has no root" true
    (at.Attribution.at_root = None
     && at.Attribution.at_cause = Attribution.No_stall)

(* --- speculation timelines ----------------------------------------- *)

(* Golden values behind the BENCH_E5/E6 "speculation" fields (quick
   bench parameters: n = 100 ops, 2n cycles).  The §5.2 claim is that
   every misprediction costs exactly one replay cycle. *)
let test_timeline_bench_golden () =
  let tl_of net cycles =
    let _, tr = traced_run net cycles in
    match Timeline.analyze (Tracer.events tr) with
    | [ tl ] -> tl
    | tls -> Alcotest.failf "expected 1 scheduler, got %d" (List.length tls)
  in
  let ops = Alu.operands ~error_rate_pct:5 ~seed:42 100 in
  let e5 = tl_of (Examples.vl_speculative ~ops).Examples.d_net 200 in
  Alcotest.(check int) "E5 serves" 105 e5.Timeline.tl_serves;
  Alcotest.(check int) "E5 squashes" 5 e5.Timeline.tl_squashes;
  Alcotest.(check int) "E5 replays" 5 e5.Timeline.tl_replays;
  Alcotest.(check (list int)) "E5 squash penalties all 1" [ 1; 1; 1; 1; 1 ]
    e5.Timeline.tl_penalties;
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 100 in
  let e6 = tl_of (Examples.rs_speculative ~ops).Examples.d_net 200 in
  Alcotest.(check int) "E6 serves" 108 e6.Timeline.tl_serves;
  Alcotest.(check int) "E6 squashes" 8 e6.Timeline.tl_squashes;
  Alcotest.(check int) "E6 max penalty" 1 e6.Timeline.tl_max_penalty;
  Alcotest.(check (float 1e-9)) "E6 mean penalty" 1.0
    e6.Timeline.tl_mean_penalty;
  Alcotest.(check bool) "E6 accuracy in (0,1)" true
    (e6.Timeline.tl_accuracy > 0.0 && e6.Timeline.tl_accuracy < 1.0)

let test_timeline_windows () =
  let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:3 150 in
  let _, tr = traced_run (Examples.rs_speculative ~ops).Examples.d_net 300 in
  match Timeline.analyze ~window:50 (Tracer.events tr) with
  | [ tl ] ->
    Alcotest.(check bool) "several windows" true
      (List.length tl.Timeline.tl_accuracy_over_time >= 3);
    List.iter
      (fun (_, acc) ->
         Alcotest.(check bool) "window accuracy in [0,1]" true
           (acc >= 0.0 && acc <= 1.0))
      tl.Timeline.tl_accuracy_over_time;
    Alcotest.(check bool) "replays bounded by squashes" true
      (tl.Timeline.tl_replays <= tl.Timeline.tl_squashes
       && tl.Timeline.tl_replays > 0)
  | tls -> Alcotest.failf "expected 1 scheduler, got %d" (List.length tls)

(* --- JSONL export -------------------------------------------------- *)

let test_jsonl () =
  let net = table1_net () in
  let _, tr = traced_run net 20 in
  let evs = Tracer.events tr in
  let text = Jsonl.to_string net evs in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event plus meta"
    (List.length evs + 1) (List.length lines);
  Alcotest.(check bool) "meta line carries the schema" true
    (Helpers.contains (List.hd lines) "elastic-speculation/trace/v1");
  List.iter
    (fun l ->
       Alcotest.(check bool) "line is an object" true
         (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  List.iter2
    (fun l (e : Event.t) ->
       Alcotest.(check bool) "cycle field" true
         (Helpers.contains l (Fmt.str "{\"c\":%d," e.Event.ev_cycle)))
    (List.tl lines) evs

(* --- observers compose ---------------------------------------------- *)

(* A tracer, a metrics sampler and a VCD recorder on one E6 engine each
   see every cycle: the trace's event fold equals the sampler's channel
   counters, both equal the engine's statistics, and the waveform is the
   one a VCD-only run records. *)
let test_observers_compose () =
  let module Engine = Elastic_sim.Engine in
  let module Metrics = Elastic_metrics.Metrics in
  let net () =
    (Examples.rs_speculative
       ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:5 100)).Examples.d_net
  in
  let vcd_only =
    let net = net () in
    let eng = Engine.create net in
    let r = Vcd.create net in
    Engine.add_observer eng (Vcd.observe r);
    Engine.run eng 200;
    Vcd.contents r
  in
  let net = net () in
  let eng = Engine.create net in
  let tr = Tracer.attach eng in
  let sampler = Elastic_metrics.Sampler.attach eng in
  let r = Vcd.create net in
  Engine.add_observer eng (Vcd.observe r);
  Engine.run eng 200;
  let counts = Event.counts (Tracer.events tr) in
  let samples = Elastic_metrics.Sampler.sample sampler eng in
  let stats = Elastic_sim.Stats.collect eng in
  List.iter2
    (fun (c : Netlist.channel) (cs : Elastic_sim.Stats.channel_stats) ->
       let id = c.Netlist.ch_id in
       let counter name =
         match
           Metrics.find ~labels:[ ("channel", c.Netlist.ch_name) ] samples
             name
         with
         | Some (Metrics.Counter n) -> n
         | _ -> Alcotest.failf "missing %s on %s" name c.Netlist.ch_name
       in
       let agree what ~stats ~trace ~metric =
         let where = Fmt.str "%s %s" c.Netlist.ch_name what in
         Alcotest.(check int) (where ^ ": trace = stats") stats trace;
         Alcotest.(check int) (where ^ ": sampler = stats") stats
           (counter metric)
       in
       agree "transfers" ~stats:cs.Elastic_sim.Stats.cs_delivered
         ~trace:(Event.delivered counts id)
         ~metric:"elastic_channel_transfers_total";
       agree "kills" ~stats:cs.Elastic_sim.Stats.cs_killed
         ~trace:(Event.killed counts id) ~metric:"elastic_channel_kills_total";
       agree "stalls" ~stats:cs.Elastic_sim.Stats.cs_retry_cycles
         ~trace:(Event.retries counts id)
         ~metric:"elastic_channel_stall_cycles_total";
       agree "antis" ~stats:cs.Elastic_sim.Stats.cs_anti_cycles
         ~trace:(Event.antis counts id)
         ~metric:"elastic_channel_anti_cycles_total")
    (Netlist.channels net) stats.Elastic_sim.Stats.channels;
  Alcotest.(check bool) "the sampler saw every cycle" true
    (Metrics.find samples "elastic_engine_cycles_total"
     = Some (Metrics.Counter 200));
  Alcotest.(check string) "VCD equals a VCD-only run" vcd_only
    (Vcd.contents r)

(* --- zero overhead when tracing is off ----------------------------- *)

(* The observer-disabled branch must not allocate: two identical runs
   allocate exactly the same number of minor words, and installing an
   empty observer changes nothing (the hook costs one branch). *)
let test_zero_overhead () =
  let words observer =
    let eng = Elastic_sim.Engine.create ~monitor:false (table1_net ()) in
    (match observer with
     | None -> ()
     | Some f -> Elastic_sim.Engine.set_observer eng (Some f));
    Elastic_sim.Engine.run eng 10;
    let before = Gc.minor_words () in
    Elastic_sim.Engine.run eng 200;
    Gc.minor_words () -. before
  in
  let w1 = words None in
  let w2 = words None in
  Alcotest.(check (float 0.0)) "identical runs allocate identically" w1 w2;
  let w3 = words (Some (fun _ -> ())) in
  Alcotest.(check (float 0.0)) "empty observer adds no allocation" w1 w3;
  let eng = Elastic_sim.Engine.create ~monitor:false (table1_net ()) in
  let tr = Tracer.attach eng in
  Elastic_sim.Engine.run eng 10;
  let before = Gc.minor_words () in
  Elastic_sim.Engine.run eng 200;
  let w4 = Gc.minor_words () -. before in
  Alcotest.(check bool) "the tracer itself does allocate" true (w4 > w1);
  ignore tr

(* --- traced fault campaigns (lib/fault observer hook) -------------- *)

let test_recovery_observer () =
  let open Elastic_fault in
  let ops = Examples.rs_ops ~error_rate_pct:0 ~seed:1 40 in
  let d = Examples.rs_speculative ~ops in
  let net = d.Examples.d_net in
  let src = Option.get (Netlist.find_node net "src") in
  let bus =
    match Netlist.outgoing net src.Netlist.id with
    | c :: _ -> c.Netlist.ch_id
    | [] -> Alcotest.fail "source has no output"
  in
  let captured = ref None in
  let report =
    Recovery.check (Recovery.golden_run ~cycles:100 ~settle:30 net)
      ~observer:(fun eng -> captured := Some (Tracer.attach eng))
      ~faults:[ Fault.flip_bit ~channel:bus ~cycle:5 3 ]
  in
  ignore report;
  match !captured with
  | None -> Alcotest.fail "observer was not installed"
  | Some tr ->
    let injects =
      List.filter
        (fun (e : Event.t) ->
           e.Event.ev_kind = Event.Inject
           && e.Event.ev_subject = Event.Chan bus)
        (Tracer.events tr)
    in
    Alcotest.(check int) "one inject event on the faulted channel" 1
      (List.length injects);
    Alcotest.(check int) "stamped with the fault cycle" 5
      (List.hd injects).Event.ev_cycle

(* --- shell surface ------------------------------------------------- *)

let exec s line =
  match Shell.execute s line with
  | Ok out -> out
  | Error m -> Alcotest.failf "command %S failed: %s" line m

let expect_error s line =
  match Shell.execute s line with
  | Ok out -> Alcotest.failf "command %S unexpectedly succeeded: %s" line out
  | Error m -> m

let test_shell_trace_commands () =
  let s = Shell.create () in
  let _ = exec s "load table1" in
  let _ = exec s "trace on" in
  let _ = exec s "throughput 40" in
  let dump = exec s "trace dump 12" in
  Alcotest.(check bool) "dump has a header" true
    (Helpers.contains dump "events recorded");
  Alcotest.(check bool) "dump shows stalls" true
    (Helpers.contains dump "stall");
  let off = exec s "trace off" in
  Alcotest.(check bool) "off keeps the last trace" true
    (Helpers.contains off "dumpable");
  let dump2 = exec s "trace dump 3" in
  Alcotest.(check bool) "dump still works after off" true
    (Helpers.contains dump2 "events recorded");
  (* The numeric Table-1-style trace is still there. *)
  let table = exec s "trace 5" in
  Alcotest.(check bool) "table trace renders channels" true
    (Helpers.contains table "->")

let test_shell_trace_dump_requires_run () =
  let s = Shell.create () in
  let _ = exec s "load table1" in
  let m = expect_error s "trace dump" in
  Alcotest.(check bool) "explains how to record" true
    (Helpers.contains m "trace on")

let test_shell_vcd () =
  let s = Shell.create () in
  let _ = exec s "load table1" in
  let path = Filename.temp_file "elastic_trace" ".vcd" in
  let out = exec s (Fmt.str "vcd %s 10" path) in
  Alcotest.(check bool) "reports the write" true
    (Helpers.contains out "wrote");
  let text = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "starts with $date" true
    (String.length text > 5 && String.sub text 0 5 = "$date");
  Alcotest.(check bool) "has definitions" true
    (Helpers.contains text "$enddefinitions $end");
  Alcotest.(check bool) "dumps the first cycle" true
    (Helpers.contains text "#0")

let test_shell_attribute_and_timeline () =
  let s = Shell.create () in
  let _ = exec s "load table1" in
  let at = exec s "attribute 100" in
  Alcotest.(check bool) "names a bottleneck" true
    (Helpers.contains at "bottleneck:");
  Alcotest.(check bool) "cross-checks the critical cycle" true
    (Helpers.contains at "critical cycle");
  Alcotest.(check bool) "agreement reported" true
    (Helpers.contains at "lies on the critical cycle");
  let tl = exec s "timeline 100" in
  Alcotest.(check bool) "shows the scheduler" true
    (Helpers.contains tl "scheduler");
  Alcotest.(check bool) "shows the penalty stats" true
    (Helpers.contains tl "replay penalty")

let test_shell_help_mentions_trace () =
  let s = Shell.create () in
  let out = exec s "help" in
  List.iter
    (fun cmd ->
       Alcotest.(check bool) cmd true (Helpers.contains out cmd))
    [ "trace on"; "trace dump"; "vcd"; "attribute"; "timeline";
      "invocation only" ]

(* --- simulation errors carry recent trace events ------------------- *)

(* A function block that raises mid-run: the engine reports a
   node-invariant error, and with tracing on the shell report includes
   the last events on the node's channels (satellite: deadlock diagnosis
   without a rerun). *)
let test_shell_error_report_includes_trace () =
  let bomb =
    Func.make ~name:"trace_test_bomb" ~arity:1 ~delay:1.0 ~area:1.0
      (function
        | [ v ] -> if Value.to_int v = 13 then invalid_arg "boom" else v
        | _ -> assert false)
  in
  Library.register bomb;
  let b = builder () in
  let s0 = src_stream b ~name:"src" [ 1; 2; 3; 13; 4 ] in
  let f = add b ~name:"bomb" (Func bomb) in
  let k = sink b ~name:"out" () in
  let _ = conn b (s0, Out 0) (f, In 0) in
  let _ = conn b (f, Out 0) (k, In 0) in
  let path = Filename.temp_file "elastic_bomb" ".enl" in
  Serial.save path b.net;
  let s = Shell.create () in
  let _ = exec s (Fmt.str "open %s" path) in
  Sys.remove path;
  (* Untraced: the base provenance message only. *)
  let bare = expect_error s "throughput 50" in
  Alcotest.(check bool) "bare report has provenance" true
    (Helpers.contains bare "node invariant violated");
  Alcotest.(check bool) "bare report has no events" false
    (Helpers.contains bare "last traced events");
  (* Traced: the same error now carries the channel history. *)
  let _ = exec s "trace on" in
  let m = expect_error s "throughput 50" in
  Alcotest.(check bool) "enriched report has provenance" true
    (Helpers.contains m "node invariant violated");
  Alcotest.(check bool) "enriched report lists events" true
    (Helpers.contains m "last traced events");
  Alcotest.(check bool) "events include earlier transfers" true
    (Helpers.contains m "transfer")

let suite =
  [ Alcotest.test_case "golden VCD header (table1)" `Quick
      test_vcd_header_golden;
    Alcotest.test_case "golden VCD first 8 cycles (table1)" `Quick
      test_vcd_contents_golden;
    Alcotest.test_case "VCD is structurally well-formed" `Quick
      test_vcd_well_formed;
    Alcotest.test_case "event fold reconstructs counters (both modes)"
      `Quick test_reconstruction_fixed;
    QCheck_alcotest.to_alcotest reconstruction_prop;
    Alcotest.test_case "occupancy events chain" `Quick test_occupancy_chain;
    Alcotest.test_case "attribution agrees with marked graph (table1)"
      `Quick test_attribution_table1;
    Alcotest.test_case "attribution names the stage (Sec. 5.1)" `Quick
      test_attribution_vl;
    Alcotest.test_case "attribution reports source-limited runs" `Quick
      test_attribution_no_stall;
    Alcotest.test_case "timeline matches bench goldens (E5/E6)" `Quick
      test_timeline_bench_golden;
    Alcotest.test_case "timeline windows and replay bounds" `Quick
      test_timeline_windows;
    Alcotest.test_case "JSONL export schema" `Quick test_jsonl;
    Alcotest.test_case "tracer, sampler and VCD observers compose" `Quick
      test_observers_compose;
    Alcotest.test_case "tracing off has zero overhead" `Quick
      test_zero_overhead;
    Alcotest.test_case "recovery checks can observe the faulted run"
      `Quick test_recovery_observer;
    Alcotest.test_case "shell: trace on/off/dump" `Quick
      test_shell_trace_commands;
    Alcotest.test_case "shell: trace dump needs a recorded run" `Quick
      test_shell_trace_dump_requires_run;
    Alcotest.test_case "shell: vcd export" `Quick test_shell_vcd;
    Alcotest.test_case "shell: attribute and timeline" `Quick
      test_shell_attribute_and_timeline;
    Alcotest.test_case "shell: help lists the trace commands" `Quick
      test_shell_help_mentions_trace;
    Alcotest.test_case "shell: errors carry recent trace events" `Quick
      test_shell_error_report_includes_trace ]
