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
   engine beside each faulted one. *)

(* --- E7, byte for byte ----------------------------------------------- *)

(* The E7 campaign of bench/main.ml: 120 single and 40 double flips on
   the operand bus (seed 2009), then the control-wire glitch, all on
   [rs_speculative_alarmed] with the severity alarm, 450 + 60 cycles. *)
let test_e7_reports () =
  let ops = Examples.rs_ops ~error_rate_pct:0 ~seed:5 400 in
  let d, alarm = Examples.rs_speculative_alarmed ~ops in
  let net = d.Examples.d_net in
  let ch = (Test_fault.channel_from net "src").Netlist.ch_id in
  let groups =
    [ ("single",
       Campaign.random_bitflips ~net ~channel:ch ~seed:2009 ~count:120
         ~from_cycle:2 ~to_cycle:350 ~bit_hi:144 ());
      ("double",
       Campaign.random_double_flips ~net ~channel:ch ~seed:2009 ~count:40
         ~from_cycle:2 ~to_cycle:350 ~bit_lo:0 ~bit_hi:72 ());
      ("glitch", [ Fault.control_glitch ~channel:ch ~cycle:25 ]) ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (label, scenarios) ->
       let s =
         Campaign.run ~cycles:450 ~settle:60 ~alarms:(Test_fault.rs_alarms alarm)
           net ~scenarios
       in
       List.iteri
         (fun i (o : Campaign.outcome) ->
            Printf.bprintf b "== %s %03d ==\n%s\n" label i
              (Fmt.str "%a" Recovery.pp_report o.Campaign.report))
         s.Campaign.outcomes)
    groups;
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
           (cycles, settle, Recovery.golden_run ~cycles b_net))
        [ (80, 60); (tight, 2) ] }

let benches =
  lazy
    (let d, alarm =
       Examples.rs_speculative_alarmed
         ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:11 30)
     in
     let vl =
       Examples.vl_speculative
         ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 30)
     in
     [ bench "rs-alarmed" d.Examples.d_net (Test_fault.rs_alarms alarm);
       bench "vl-speculative" vl.Examples.d_net [] ])

(* One scenario of each kind, on channel [ch] at [cycle]; [seed] picks a
   whole-design storm flip. *)
let scenario_kinds net ~ch ~cycle ~seed =
  [ Fault.control_glitch ~channel:ch ~cycle;
    [ Fault.drop_token ~channel:ch ~cycle ];
    [ Fault.duplicate_token ~channel:ch ~cycle ];
    [ Fault.stuck_stall ~channel:ch ~cycle ~duration:3 ];
    [ Fault.stuck_stall ~channel:ch ~cycle ~duration:10_000 ];
    List.hd
      (Campaign.random_storm ~net ~seed ~count:1 ~from_cycle:2
         ~to_cycle:(max 3 cycle)) ]

(* [check ~golden:shared] and [check] with a fresh golden run per
   scenario, on every scenario; returns the shared reports. *)
let shared_vs_fresh b (cycles, settle, golden) scenarios =
  List.map
    (fun faults ->
       let shared =
         Recovery.check ~cycles ~settle ~alarms:b.b_alarms ~golden b.b_net
           ~faults
       in
       let fresh =
         Recovery.check ~cycles ~settle ~alarms:b.b_alarms b.b_net ~faults
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

(* --- misuse ------------------------------------------------------------ *)

let test_misuse () =
  let mk () =
    (Examples.vl_speculative
       ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 20))
      .Examples.d_net
  in
  let net = mk () in
  let faults = [ Fault.drop_token ~channel:0 ~cycle:5 ] in
  let rejects what golden f =
    match f golden with
    | _ -> Alcotest.failf "%s: accepted a mismatched golden run" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names Recovery.check") true
        (Helpers.contains msg "Recovery.check")
  in
  let g = Recovery.golden_run ~cycles:60 net in
  rejects "another netlist" g (fun golden ->
      Recovery.check ~cycles:60 ~golden (mk ()) ~faults);
  rejects "another cycle count" g (fun golden ->
      Recovery.check ~cycles:61 ~golden net ~faults);
  rejects "default cycle count" g (fun golden ->
      Recovery.check ~golden net ~faults);
  rejects "arena golden, reference check" g (fun golden ->
      Recovery.check ~cycles:60 ~mode:Engine.Reference ~golden net ~faults);
  let gr = Recovery.golden_run ~cycles:60 ~mode:Engine.Reference net in
  rejects "reference golden, arena check" gr (fun golden ->
      Recovery.check ~cycles:60 ~golden net ~faults);
  Alcotest.(check bool) "reference golden, reference check" true
    (Recovery.check ~cycles:60 ~mode:Engine.Reference ~golden:gr net ~faults
     = Recovery.check ~cycles:60 ~mode:Engine.Reference net ~faults)

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
    Alcotest.test_case "mismatched golden run is rejected" `Quick
      test_misuse;
    Alcotest.test_case "empty campaign builds no golden run" `Quick
      test_empty_campaign ]
