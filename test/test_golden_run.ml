open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_fault

(* The golden-run cache of Recovery.check: a campaign simulates its
   fault-free reference once ({!Recovery.golden_run}) and classifies
   every scenario against it.  The shared run must give the verdicts of
   a run built per scenario, and of the lockstep checker it replaced:
   [e7_reports.expected] holds [Recovery.pp_report] for every E7
   scenario as rendered by that checker, which stepped a fresh reference
   engine beside each faulted one and ran every cycle of it. *)

(* --- E7, byte for byte ----------------------------------------------- *)

(* The E7 campaign of the bench: the library's SECDED campaign on its
   400-operation error-free workload, 120 single and 40 double flips on
   the operand bus and the control-wire glitch, 450 + 60 cycles. *)
let e7 () =
  Examples.secded_campaign
    ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)

let test_e7_reports () =
  let c = e7 () in
  let b = Buffer.create 65536 in
  List.iter
    (fun (label, scenarios) ->
       let s =
         Campaign.run ~cycles:c.Examples.sc_cycles
           ~settle:c.Examples.sc_settle ~alarms:c.Examples.sc_alarms
           c.Examples.sc_net ~scenarios
       in
       List.iteri
         (fun i (o : Campaign.outcome) ->
            Printf.bprintf b "== %s %03d ==\n%s\n" label i
              (Fmt.str "%a" Recovery.pp_report o.Campaign.report))
         s.Campaign.outcomes)
    c.Examples.sc_groups;
  Test_arena.check_golden "e7_reports.expected" (Buffer.contents b)

(* --- shared vs per-scenario golden run -------------------------------- *)

(* Two designs, each checked on a roomy window (the workload drains well
   inside [cycles], settle 60) and on a tight one (settle 2 just past the
   drain), so delaying faults end in [Deadlock] as well as the other
   classes. *)
type bench = {
  b_name : string;
  b_net : Netlist.t;
  b_alarms : (Netlist.node_id * (Value.t -> bool)) list;
  b_windows : (int * int * Recovery.golden) list;  (* cycles, settle *)
}

let last_transfer net =
  let eng = Engine.create net in
  Engine.run eng 200;
  List.fold_left
    (fun acc (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ ->
         List.fold_left
           (fun acc e -> max acc e.Transfer.cycle)
           acc
           (Transfer.entries (Engine.sink_stream eng n.Netlist.id))
       | _ -> acc)
    0 (Netlist.nodes net)

let bench b_name b_net b_alarms =
  let tight = last_transfer b_net + 3 in
  { b_name;
    b_net;
    b_alarms;
    b_windows =
      List.map
        (fun (cycles, settle) ->
           (cycles, settle,
            Recovery.golden_run ~cycles ~settle ~alarms:b_alarms b_net))
        [ (80, 60); (tight, 2) ] }

let secded_bench name ~ops =
  let c = Examples.secded_campaign ~ops in
  bench name c.Examples.sc_net c.Examples.sc_alarms

let benches =
  lazy
    (let rs =
       secded_bench "rs-alarmed"
         ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:11 30)
     in
     let vl =
       Examples.vl_speculative
         ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 30)
     in
     [ rs; bench "vl-speculative" vl.Examples.d_net [] ])

(* One scenario of each kind, on channel [ch] at [cycle]; [seed] picks a
   whole-design storm flip.  A forged anti-token (V- pinned high) breaks
   the invariant of the node that takes it, which crashes the run. *)
let scenario_kinds net ~ch ~cycle ~seed =
  [ Fault.control_glitch ~channel:ch ~cycle;
    [ { Fault.target = Fault.Channel ch; kind = Fault.Force_kill true; cycle;
        duration = 1 } ];
    [ Fault.drop_token ~channel:ch ~cycle ];
    [ Fault.duplicate_token ~channel:ch ~cycle ];
    [ Fault.stuck_stall ~channel:ch ~cycle ~duration:3 ];
    [ Fault.stuck_stall ~channel:ch ~cycle ~duration:10_000 ];
    List.hd
      (Campaign.random_storm ~net ~seed ~count:1 ~from_cycle:2
         ~to_cycle:(max 3 cycle)) ]

(* [check] against the shared golden run and against a fresh one per
   scenario, on every scenario; returns the shared reports. *)
let shared_vs_fresh b (cycles, settle, golden) scenarios =
  List.map
    (fun faults ->
       let shared = Recovery.check golden ~faults in
       let fresh =
         Recovery.check
           (Recovery.golden_run ~cycles ~settle ~alarms:b.b_alarms b.b_net)
           ~faults
       in
       if shared <> fresh then
         QCheck.Test.fail_reportf "%s, %d+%d cycles:@.shared: %a@.fresh: %a"
           b.b_name cycles settle Recovery.pp_report shared
           Recovery.pp_report fresh;
       shared)
    scenarios

let qcheck_shared_vs_fresh =
  QCheck.Test.make ~count:60 ~name:"shared golden run == per-scenario"
    QCheck.(
      quad (int_bound 1) (int_bound 1) (int_bound 1000) (int_bound 1000))
    (fun (bi, wi, chi, seed) ->
       let b = List.nth (Lazy.force benches) bi in
       let ((cycles, _, _) as w) = List.nth b.b_windows wi in
       let chans = Netlist.channels b.b_net in
       let ch = (List.nth chans (chi mod List.length chans)).Netlist.ch_id in
       let cycle = 1 + (seed mod (cycles - 1)) in
       ignore
         (shared_vs_fresh b w (scenario_kinds b.b_net ~ch ~cycle ~seed));
       true)

(* The sweep the qcheck draws from does reach every non-benign class. *)
let test_classes_covered () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun b ->
       List.iter
         (fun w ->
            List.iter
              (fun (c : Netlist.channel) ->
                 List.iter
                   (fun cycle ->
                      List.iter
                        (fun (r : Recovery.report) ->
                           Hashtbl.replace seen
                             (Recovery.classification_label
                                r.Recovery.classification)
                             ())
                        (shared_vs_fresh b w
                           (scenario_kinds b.b_net ~ch:c.Netlist.ch_id
                              ~cycle ~seed:cycle)))
                   [ 5; 20 ])
              (Netlist.channels b.b_net))
         b.b_windows)
    (Lazy.force benches);
  List.iter
    (fun label ->
       Alcotest.(check bool) (label ^ " reached") true (Hashtbl.mem seen label))
    [ "masked"; "corrected"; "detected"; "silent-corruption"; "deadlock";
      "crashed" ]

(* --- cut-off runs vs plain full runs ------------------------------------ *)

(* [Recovery.run_faulted] starts the faulted engine at the first fault
   cycle and stops it once it rejoins the golden trajectory.  Here every
   cycle is stepped instead, and the two must leave the same sink
   streams (with stamps; {!Recovery.materialize} on the cut-off side),
   violations, starvation reports and crash, and classify alike.  The
   full run is returned both as the engine's own streams and as the
   degenerate delta: start 0, no cut, every transfer in the delta.  It
   runs on [engine], put back at cycle 0, or on a fresh engine. *)
let full_run ?engine net ~cycles ~settle plan =
  let eng =
    match engine with
    | Some (eng, start) ->
      Engine.restore eng start;
      eng
    | None -> Engine.create ~monitor:true net
  in
  Engine.set_faults eng (Some plan);
  let crash =
    try
      Engine.run eng (cycles + settle);
      None
    with
    | Engine.Simulation_error e -> Some (Engine.error_to_string e)
    | e -> Some (Printexc.to_string e)
  in
  let streams =
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Sink _ ->
           Some
             (n.Netlist.id,
              Transfer.entries (Engine.sink_stream eng n.Netlist.id))
         | _ -> None)
      (Netlist.nodes net)
  in
  ( streams,
    { Recovery.f_start = 0;
      f_delta =
        Array.of_list (List.map (fun (_, es) -> Array.of_list es) streams);
      f_cut = None;
      f_violations = Engine.violations_by_id eng;
      f_starvation = Engine.starvation_violations eng;
      f_crash = crash;
      f_stabilized = None } )

(* A [Random_rate] source through two buffers into a stall-pattern
   sink.  The source offers an endless counter stream, so every faulted
   transfer beyond the reference counts as spurious; the point here is
   the timing, which the source's random generator drives every cycle. *)
let random_rate () =
  let open Helpers in
  let b = builder () in
  let r =
    add b ~name:"r"
      (Netlist.Source (Netlist.Random_rate { pct = 60; seed = 7 }))
  in
  let e1 = eb b ~name:"e1" () in
  let e2 = eb b ~name:"e2" () in
  let k = sink_pattern b ~name:"k" [| false; true; false |] in
  let _ = conn b (r, Netlist.Out 0) (e1, Netlist.In 0) in
  let _ = conn b (e1, Netlist.Out 0) (e2, Netlist.In 0) in
  let _ = conn b (e2, Netlist.Out 0) (k, Netlist.In 0) in
  b.net

(* A finite stream joined with a [Random_rate] source.  Once the stream
   drains, the random source waits at the join for good and its
   channel's liveness watchdog fires 64 cycles later, in the golden run
   too: a violation a cut-off run would have to reproduce. *)
let random_join () =
  let open Helpers in
  let b = builder () in
  let s = src_stream b ~name:"s" (List.init 20 Fun.id) in
  let r =
    add b ~name:"r"
      (Netlist.Source (Netlist.Random_rate { pct = 60; seed = 7 }))
  in
  let j = add b ~name:"j" (Netlist.Func (Func.add_int ~arity:2 ())) in
  let e = eb b ~name:"e" () in
  let k = sink_pattern b ~name:"k" [| false; true; false; false; true |] in
  let _ = conn b (s, Netlist.Out 0) (j, Netlist.In 0) in
  let _ = conn b (r, Netlist.Out 0) (j, Netlist.In 1) in
  let _ = conn b (j, Netlist.Out 0) (e, Netlist.In 0) in
  let _ = conn b (e, Netlist.Out 0) (k, Netlist.In 0) in
  b.net

(* An endless counter into a sink that stalls every other cycle.  A
   suppressed stall lets one token through early, and the faulted run
   then stays two cycles {e ahead} of the golden one, busy until the
   last cycle of the window. *)
let counter_pattern () =
  let open Helpers in
  let b = builder () in
  let c = src_counter b ~name:"c" () in
  let e = eb b ~name:"e" () in
  let k = sink_pattern b ~name:"k" [| false; true |] in
  let _ = conn b (c, Netlist.Out 0) (e, Netlist.In 0) in
  let _ = conn b (e, Netlist.Out 0) (k, Netlist.In 0) in
  b.net

(* An endless constant stream into a sink that stalls two cycles in
   three: every transfer carries the same value, so runs that deliver
   at other cycles differ only in their stamps. *)
let constant_pattern () =
  let open Helpers in
  let b = builder () in
  let c =
    add b ~name:"c" (Netlist.Source (Netlist.Counter { start = 7; step = 0 }))
  in
  let e = eb b ~name:"e" () in
  let k = sink_pattern b ~name:"k" [| false; true; true |] in
  let _ = conn b (c, Netlist.Out 0) (e, Netlist.In 0) in
  let _ = conn b (e, Netlist.Out 0) (k, Netlist.In 0) in
  b.net

(* The SECDED design with an alarm that trips on every corrected error,
   so the golden run trips it too: a faulted run's trips are counted in
   the golden prefix, the delta and the golden stretch after the cut. *)
let corrected_alarm_bench () =
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:20 ~seed:3 30)
  in
  bench "rs-alarmed-corrected" c.Examples.sc_net
    (List.map
       (fun (nid, _) -> (nid, fun v -> Value.to_int v >= 1))
       c.Examples.sc_alarms)

let differential_benches =
  lazy
    (Lazy.force benches
     @ [ secded_bench "rs-alarmed-errors"
           ~ops:(Examples.rs_ops ~error_rate_pct:20 ~seed:3 30);
         bench "random-rate" (random_rate ()) [];
         bench "random-join" (random_join ()) [];
         bench "counter-pattern" (counter_pattern ()) [];
         bench "constant-pattern" (constant_pattern ()) [];
         corrected_alarm_bench () ])

(* Fault kind [kind] (0..8) on channel [ch] at [cycle]; [seed] picks
   bits, durations and the mispredicted way. *)
let fault_of_kind net ~kind ~ch ~cycle ~seed =
  let width = max 1 (Netlist.channel net ch).Netlist.width in
  let bit = seed mod width in
  match kind with
  | 0 -> [ Fault.flip_bit ~channel:ch ~cycle bit ]
  | 1 ->
    [ Fault.flip_bits ~channel:ch ~cycle
        [ bit; (bit + 1 + (seed / 7)) mod width ] ]
  | 2 -> [ Fault.drop_token ~channel:ch ~cycle ]
  | 3 -> [ Fault.duplicate_token ~channel:ch ~cycle ]
  | 4 -> [ Fault.stuck_stall ~channel:ch ~cycle ~duration:(1 + (seed mod 4)) ]
  | 5 -> Fault.control_glitch ~channel:ch ~cycle
  | 6 ->
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Shared { ways; _ } ->
           Some (Fault.mispredict ~node:n.Netlist.id ~cycle (seed mod ways))
         | _ -> None)
      (Netlist.nodes net)
  | 7 ->
    [ { Fault.target = Fault.Channel ch; kind = Fault.Force_stop false;
        cycle; duration = 1 + (seed mod 2) } ]
  | _ -> [ Fault.glitch_valid ~channel:ch ~cycle true ]

let cut_vs_full b (cycles, settle, golden) faults =
  let cut = Recovery.run_faulted golden ~faults in
  let streams, full =
    full_run b.b_net ~cycles ~settle (Fault.plan b.b_net faults)
  in
  let pp_faults = Fmt.(list ~sep:(any "; ") string) in
  let describe = List.map (Fault.describe b.b_net) faults in
  if Recovery.materialize golden cut <> streams
  || cut.Recovery.f_violations <> full.Recovery.f_violations
  || cut.Recovery.f_starvation <> full.Recovery.f_starvation
  || cut.Recovery.f_crash <> full.Recovery.f_crash
  then
    QCheck.Test.fail_reportf
      "%s, %d+%d cycles, faults [%a]: the cut-off run (stabilized %a) \
       differs from the full run"
      b.b_name cycles settle pp_faults describe
      Fmt.(option ~none:(any "never") (pair ~sep:comma int int))
      cut.Recovery.f_stabilized;
  let checked = Recovery.check golden ~faults in
  let plain = Recovery.classify golden ~faults full in
  if { checked with Recovery.stabilized = None } <> plain then
    QCheck.Test.fail_reportf "%s, faults [%a]:@.cut-off: %a@.full: %a"
      b.b_name pp_faults describe Recovery.pp_report checked
      Recovery.pp_report plain;
  cut.Recovery.f_stabilized

let qcheck_cut_vs_full =
  QCheck.Test.make ~count:300 ~name:"cut-off run == full run"
    QCheck.(
      pair (quad (int_bound 7) (int_bound 1) (int_bound 8) (int_bound 1000))
        (int_bound 10_000))
    (fun ((bi, wi, kind, chi), seed) ->
       let b = List.nth (Lazy.force differential_benches) bi in
       let ((cycles, _, _) as w) = List.nth b.b_windows wi in
       let chans = Netlist.channels b.b_net in
       let ch = (List.nth chans (chi mod List.length chans)).Netlist.ch_id in
       let cycle = seed mod (cycles + 5) in
       ignore
         (cut_vs_full b w (fault_of_kind b.b_net ~kind ~ch ~cycle ~seed));
       true)

(* [Recovery.classify] reads a cut-off run by golden entry index and
   decides the shifted golden stretch in O(1) when it starts where the
   delta ends; otherwise it walks it.  Real cut-off runs almost always
   line up, so here the cut of a real run is also moved to earlier
   golden cycles [g'] (one to three cycles back, and a drawn one), which
   shifts the stretch against the delta.  Every verdict must be the one
   for the same streams as a run of every cycle (start 0, no cut, every
   transfer in the delta). *)
let degenerate golden (f : Recovery.faulted) =
  { f with
    Recovery.f_start = 0;
    f_cut = None;
    f_delta =
      Array.of_list
        (List.map
           (fun (_, es) -> Array.of_list es)
           (Recovery.materialize golden f)) }

let qcheck_classify_by_index =
  QCheck.Test.make ~count:200
    ~name:"classify by index == classify the materialized run"
    QCheck.(
      pair (quad (int_bound 7) (int_bound 1) (int_bound 8) (int_bound 1000))
        (pair (int_bound 10_000) (int_bound 1000)))
    (fun ((bi, wi, kind, chi), (seed, back)) ->
       let b = List.nth (Lazy.force differential_benches) bi in
       let cycles, _, golden = List.nth b.b_windows wi in
       let chans = Netlist.channels b.b_net in
       let ch = (List.nth chans (chi mod List.length chans)).Netlist.ch_id in
       let faults =
         fault_of_kind b.b_net ~kind ~ch ~cycle:(seed mod (cycles + 5)) ~seed
       in
       let f = Recovery.run_faulted golden ~faults in
       (* [g' <= g] keeps the stretch inside the golden trajectory. *)
       let cuts =
         match f.Recovery.f_cut with
         | Some (c, g) ->
           List.filter_map
             (fun d -> if d <= g then Some (Some (c, g - d)) else None)
             [ 0; 1; 2; 3; back mod (g + 1) ]
         | None -> [ None ]
       in
       List.iter
         (fun cut ->
            let f = { f with Recovery.f_cut = cut } in
            let by_index = Recovery.classify golden ~faults f in
            let plain =
              Recovery.classify golden ~faults (degenerate golden f)
            in
            if by_index <> plain then
              QCheck.Test.fail_reportf
                "%s, cut %a:@.by index: %a@.materialized: %a" b.b_name
                Fmt.(option ~none:(any "none") (pair ~sep:comma int int))
                cut Recovery.pp_report by_index Recovery.pp_report plain)
         cuts;
       true)

(* With no fault the faulted run is the golden run: it has the transfer
   counts of a plain run's data sinks, in the first [cycles] cycles (the
   reference) and in all [cycles + settle] (the faulted run), and it is
   masked, also where the sources never run dry or a report falls in the
   settle window. *)
let test_no_fault () =
  List.iter
    (fun b ->
       List.iter
         (fun (cycles, settle, golden) ->
            let eng = Engine.create b.b_net in
            Engine.run eng (cycles + settle);
            let count keep =
              List.fold_left
                (fun acc (n : Netlist.node) ->
                   match n.Netlist.kind with
                   | Netlist.Sink _
                     when not (List.mem_assoc n.Netlist.id b.b_alarms) ->
                     acc
                     + List.length
                         (List.filter keep
                            (Transfer.entries
                               (Engine.sink_stream eng n.Netlist.id)))
                   | _ -> acc)
                0 (Netlist.nodes b.b_net)
            in
            let r = Recovery.check golden ~faults:[] in
            let what = Fmt.str "%s, %d+%d cycles" b.b_name cycles settle in
            Alcotest.(check int) (what ^ ": reference transfers")
              (count (fun e -> e.Transfer.cycle < cycles))
              r.Recovery.ref_transfers;
            Alcotest.(check int) (what ^ ": faulted transfers")
              (count (fun _ -> true)) r.Recovery.faulted_transfers;
            Alcotest.(check string) (what ^ ": classification") "masked"
              (Fmt.str "%a" Recovery.pp_classification
                 r.Recovery.classification))
         b.b_windows)
    (Lazy.force differential_benches)

(* One scenario per soundness condition of the cut-off, each of which
   goes wrong when that condition is dropped: a duplicated token needs
   the prefix, a random source's generator is state, a golden stretch
   with a liveness violation cannot be spliced, and a run that got
   ahead of the golden one finds no golden stretch long enough. *)
let test_guards () =
  let find name =
    List.find (fun b -> String.equal b.b_name name)
      (Lazy.force differential_benches)
  in
  let chan b name =
    (List.find
       (fun (c : Netlist.channel) -> String.equal c.Netlist.ch_name name)
       (Netlist.channels b.b_net))
      .Netlist.ch_id
  in
  let run name ch faults =
    let b = find name in
    ignore (cut_vs_full b (List.hd b.b_windows) (faults (chan b ch)))
  in
  run "rs-alarmed" "mux.out0->out.in0" (fun ch ->
      [ Fault.duplicate_token ~channel:ch ~cycle:31 ]);
  run "random-rate" "r.out0->e1.in0" (fun ch ->
      [ Fault.drop_token ~channel:ch ~cycle:49 ]);
  run "random-join" "s.out0->j.in0" (fun ch ->
      [ Fault.flip_bit ~channel:ch ~cycle:0 0 ]);
  run "counter-pattern" "e.out0->k.in0" (fun ch ->
      [ { Fault.target = Fault.Channel ch; kind = Fault.Force_stop false;
          cycle = 15; duration = 2 } ])

(* The E7 campaign's single flips all rejoin the golden run one cycle
   late, a few cycles after the fault: the paper's one-cycle replay. *)
let test_e7_stabilizes () =
  let c = e7 () in
  let cycles = c.Examples.sc_cycles and settle = c.Examples.sc_settle in
  let b = { b_name = "e7"; b_net = c.Examples.sc_net;
            b_alarms = c.Examples.sc_alarms; b_windows = [] } in
  let w =
    (cycles, settle,
     Recovery.golden_run ~cycles ~settle ~alarms:b.b_alarms b.b_net)
  in
  List.iter
    (fun faults ->
       match cut_vs_full b w faults with
       | Some (after, lag) ->
         Alcotest.(check int) "lag" 1 lag;
         Alcotest.(check bool) "stabilizes within 5 cycles" true (after <= 5)
       | None -> Alcotest.fail "E7 scenario ran to the end")
    (Examples.secded_flips c ~count:12)

(* --- words per scenario -------------------------------------------------- *)

(* A faulted run is the golden run plus a delta, classified by index:
   after the few cycles it steps, a scenario reads only counts the
   golden run computed once.  So an E7 single flip on a reused engine
   allocates a fixed number of minor words (deterministic; the budget is
   the measured 1068 plus ~5%), and the same faults cost the same words
   on a run ten times as long.  Anything that walks or copies the sink
   streams per scenario trips both. *)
let words_per_scenario ~ops ~cycles =
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 ops)
  in
  let golden =
    Recovery.golden_run ~cycles ~settle:c.Examples.sc_settle
      ~alarms:c.Examples.sc_alarms c.Examples.sc_net
  in
  let engine = Recovery.faulted_engine golden in
  let flips = Examples.secded_flips c ~count:120 in
  let run () =
    List.iter
      (fun faults -> ignore (Recovery.check ~engine golden ~faults))
      flips
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (List.length flips)

let test_scenario_words () =
  let short = words_per_scenario ~ops:400 ~cycles:450 in
  let long = words_per_scenario ~ops:4000 ~cycles:4500 in
  if short > 1122. then
    Alcotest.failf
      "Recovery.check allocates %.1f words per E7 single flip (budget 1122)"
      short;
  if Float.abs (long -. short) > 4. then
    Alcotest.failf
      "words per scenario grow with the run: %.1f at 450 cycles, %.1f at \
       4500" short long

(* --- one faulted engine for many scenarios ------------------------------ *)

(* [Recovery.run_faulted ~engine] restores the engine from the golden
   snapshot and resets its observers and profile, so a campaign can run
   every scenario on one engine.  Each scenario must then leave what it
   leaves on a fresh engine: the faulted record, the report, the
   engine's per-channel counters, the profile's counts and the trace a
   tracer attached by the observer records.  Traces are rendered only
   after the whole list has run, so an observer that stayed attached
   into later scenarios shows up in them. *)
type reuse_outcome = {
  r_faulted : Recovery.faulted;
  r_report : Recovery.report;
  r_counters : (int * int * (int * int * int)) list;
  r_cycles : int;
  r_evals : int;
  r_trace : unit -> int * string;  (* events recorded, JSONL of the ring *)
}

let run_scenario ?engine b golden faults =
  let attached = ref None in
  let observer e =
    attached := Some (e, Elastic_trace.Tracer.attach ~capacity:4096 e)
  in
  let f = Recovery.run_faulted ?engine ~observer golden ~faults in
  let eng, tracer = Option.get !attached in
  let p = Engine.profile eng in
  { r_faulted = f;
    r_report = Recovery.classify golden ~faults f;
    r_counters =
      List.map
        (fun (c : Netlist.channel) ->
           let id = c.Netlist.ch_id in
           (Engine.delivered eng id, Engine.killed eng id,
            Engine.activity eng id))
        (Netlist.channels b.b_net);
    r_cycles = Profile.cycles p;
    r_evals = Profile.evals p;
    r_trace =
      (fun () ->
         (Elastic_trace.Tracer.recorded tracer,
          Elastic_trace.Jsonl.to_string b.b_net
            (Elastic_trace.Tracer.events tracer))) }

(* Runs [scenarios] in order on one engine and each on a fresh one, and
   fails on the first difference; returns the reports. *)
let reused_vs_fresh b (cycles, settle, golden) scenarios =
  let engine = Recovery.faulted_engine golden in
  let runs =
    List.map
      (fun faults ->
         (faults, run_scenario ~engine b golden faults,
          run_scenario b golden faults))
      scenarios
  in
  List.iteri
    (fun i (faults, reused, fresh) ->
       let differs what =
         QCheck.Test.fail_reportf
           "%s, %d+%d cycles, scenario %d of %d [%a]: the reused engine's \
            %s differs from a fresh engine's"
           b.b_name cycles settle i (List.length scenarios)
           Fmt.(list ~sep:(any "; ") string)
           (List.map (Fault.describe b.b_net) faults)
           what
       in
       if reused.r_faulted <> fresh.r_faulted then differs "faulted run";
       if reused.r_report <> fresh.r_report then differs "report";
       if reused.r_counters <> fresh.r_counters then differs "counters";
       if reused.r_cycles <> fresh.r_cycles then differs "profile cycles";
       if reused.r_evals <> fresh.r_evals then differs "profile evals";
       if reused.r_trace () <> fresh.r_trace () then differs "trace")
    runs;
  List.map (fun (_, reused, _) -> reused.r_report) runs

(* A plan holds no state: one plan value run as two consecutive
   scenarios on one engine leaves the same faulted run twice.  A
   duplicated token replays a payload the engine keeps, and
   [Engine.set_faults] starts that afresh: forged at cycle 0 on the slow
   path's buffer output, before any token got there, it is [Int 0]
   both times, not the payload the first run kept for the second
   duplicate. *)
let test_plan_shared () =
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 60)
  in
  let net = c.Examples.sc_net and ch = c.Examples.sc_bus in
  let id name = (Option.get (Netlist.find_node net name)).Netlist.id in
  let stage = id "stage" in
  let slow =
    (List.find
       (fun (c : Netlist.channel) -> c.Netlist.src.Netlist.ep_node = id "EBx")
       (Netlist.channels net)).Netlist.ch_id
  in
  let eng = Engine.create ~monitor:true net in
  let engine = (eng, Engine.snapshot eng) in
  List.iter
    (fun faults ->
       let plan = Fault.plan net faults in
       let run () = full_run ~engine net ~cycles:120 ~settle:60 plan in
       let first = run () in
       Alcotest.(check bool)
         (String.concat " + " (List.map (Fault.describe net) faults))
         true (first = run ()))
    [ [ Fault.flip_bit ~channel:ch ~cycle:20 17 ];
      [ Fault.duplicate_token ~channel:slow ~cycle:0;
        Fault.duplicate_token ~channel:slow ~cycle:40 ];
      Fault.control_glitch ~channel:ch ~cycle:30
      @ [ Fault.mispredict ~node:stage ~cycle:33 1;
          Fault.duplicate_token ~channel:ch ~cycle:35 ] ]

let classes_of reports =
  List.sort_uniq String.compare
    (List.map
       (fun (r : Recovery.report) ->
          Recovery.classification_label r.Recovery.classification)
       reports)

(* Every fault kind on every channel of every differential design, at
   two cycles, in sweep order on one engine per window; the sweep
   reaches every class, and a crashed scenario is followed by a normal
   one on the same engine.  Each channel ends with a stall that outlasts
   the run, which leaves the starvation watchdog's wait counts running,
   then a stall just past the watchdog's 64-cycle bound, which reports
   starvation only if it starts from the golden counts. *)
let test_reuse_sweep () =
  let seen = ref [] and crash_then_normal = ref false in
  List.iter
    (fun b ->
       List.iter
         (fun ((cycles, _, _) as w) ->
            let scenarios =
              List.concat_map
                (fun (c : Netlist.channel) ->
                   let ch = c.Netlist.ch_id in
                   List.concat_map
                     (fun cycle ->
                        List.init 9 (fun kind ->
                            fault_of_kind b.b_net ~kind ~ch ~cycle
                              ~seed:(cycle + kind)))
                     [ 5; cycles / 2 ]
                   @ [ [ Fault.stuck_stall ~channel:ch ~cycle:5
                           ~duration:10_000 ];
                       [ Fault.stuck_stall ~channel:ch ~cycle:5
                           ~duration:70 ] ])
                (Netlist.channels b.b_net)
            in
            let reports = reused_vs_fresh b w scenarios in
            seen := classes_of reports @ !seen;
            let crashed (r : Recovery.report) =
              match r.Recovery.classification with
              | Recovery.Crashed _ -> true
              | _ -> false
            in
            let rec scan = function
              | a :: (b :: _ as rest) ->
                if crashed a && not (crashed b) then crash_then_normal := true;
                scan rest
              | [ _ ] | [] -> ()
            in
            scan reports)
         b.b_windows)
    (Lazy.force differential_benches);
  List.iter
    (fun label ->
       Alcotest.(check bool) (label ^ " reached") true (List.mem label !seen))
    [ "masked"; "corrected"; "detected"; "silent-corruption"; "deadlock";
      "crashed" ];
  Alcotest.(check bool) "a crash is followed by a normal scenario" true
    !crash_then_normal

let qcheck_reuse_orders =
  QCheck.Test.make ~count:100 ~name:"reused faulted engine == fresh engine"
    QCheck.(
      triple (int_bound 7) (int_bound 1)
        (list_of_size Gen.(int_range 2 8)
           (triple (int_bound 8) (int_bound 1000) (int_bound 10_000))))
    (fun (bi, wi, picks) ->
       let b = List.nth (Lazy.force differential_benches) bi in
       let ((cycles, _, _) as w) = List.nth b.b_windows wi in
       let chans = Netlist.channels b.b_net in
       let scenarios =
         List.map
           (fun (kind, chi, seed) ->
              let ch =
                (List.nth chans (chi mod List.length chans)).Netlist.ch_id
              in
              fault_of_kind b.b_net ~kind ~ch ~cycle:(seed mod (cycles + 5))
                ~seed)
           picks
       in
       ignore (reused_vs_fresh b w scenarios);
       true)

(* --- misuse ------------------------------------------------------------ *)

let test_misuse () =
  let mk () =
    (Examples.vl_speculative
       ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 20))
      .Examples.d_net
  in
  let net = mk () in
  let faults = [ Fault.drop_token ~channel:0 ~cycle:5 ] in
  let g = Recovery.golden_run ~cycles:60 net in
  let gr = Recovery.golden_run ~cycles:60 ~mode:Engine.Reference net in
  let rejects_engine what golden engine =
    let named f =
      match f () with
      | _ -> Alcotest.failf "%s: accepted a mismatched engine" what
      | exception Invalid_argument msg ->
        Alcotest.(check bool) (what ^ " names Recovery.run_faulted") true
          (Helpers.contains msg "Recovery.run_faulted")
    in
    named (fun () -> Recovery.run_faulted ~engine golden ~faults);
    named (fun () -> Recovery.check ~engine golden ~faults)
  in
  rejects_engine "engine for another netlist" g
    (Engine.create ~monitor:true (mk ()));
  rejects_engine "reference engine, arena golden" g
    (Engine.create ~monitor:true ~mode:Engine.Reference net);
  rejects_engine "arena engine, reference golden" gr
    (Recovery.faulted_engine g)

let test_empty_campaign () =
  (* A campaign with no scenarios never simulates: an engine that cannot
     even be created is not touched. *)
  let net, _ =
    Netlist.add_node Netlist.empty (Netlist.Sink Netlist.Always_ready)
  in
  let s = Campaign.run net ~scenarios:[] in
  Alcotest.(check int) "no outcomes" 0 s.Campaign.total

let suite =
  [ Alcotest.test_case "E7 reports reproduce the lockstep checker" `Quick
      test_e7_reports;
    QCheck_alcotest.to_alcotest qcheck_shared_vs_fresh;
    Alcotest.test_case "shared golden reaches every class" `Quick
      test_classes_covered;
    QCheck_alcotest.to_alcotest qcheck_cut_vs_full;
    QCheck_alcotest.to_alcotest qcheck_classify_by_index;
    Alcotest.test_case "no fault: the golden run's transfer counts" `Quick
      test_no_fault;
    Alcotest.test_case "each cut-off condition matters" `Quick test_guards;
    Alcotest.test_case "E7 flips rejoin the golden run one cycle late"
      `Quick test_e7_stabilizes;
    Alcotest.test_case "a scenario costs what it steps" `Quick
      test_scenario_words;
    Alcotest.test_case "one engine for a sweep == fresh engines" `Quick
      test_reuse_sweep;
    QCheck_alcotest.to_alcotest qcheck_reuse_orders;
    Alcotest.test_case "one plan, two scenarios on one engine" `Quick
      test_plan_shared;
    Alcotest.test_case "mismatched golden run is rejected" `Quick
      test_misuse;
    Alcotest.test_case "empty campaign builds no golden run" `Quick
      test_empty_campaign ]
