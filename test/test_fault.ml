open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_fault

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)

let channel_into net node_name =
  let n =
    match Netlist.find_node net node_name with
    | Some n -> n
    | None -> Alcotest.failf "no node named %s" node_name
  in
  match
    List.find_opt
      (fun (c : Netlist.channel) -> c.Netlist.dst.Netlist.ep_node = n.Netlist.id)
      (Netlist.channels net)
  with
  | Some c -> c
  | None -> Alcotest.failf "nothing drives node %s" node_name

(* The library's SECDED campaign on a short error-free workload: the
   alarmed resilient adder, its severity alarm and its operand bus. *)
let secded ?(n = 60) () =
  Examples.secded_campaign ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:11 n)

(* [Recovery.check] against a 120-cycle golden run of [c]. *)
let check (c : Examples.secded_campaign) ~faults =
  Recovery.check
    (Recovery.golden_run ~cycles:120 ~alarms:c.Examples.sc_alarms
       c.Examples.sc_net)
    ~faults

(* ------------------------------------------------------------------ *)
(* Fault model unit tests                                               *)

let test_flip_value () =
  let v =
    Value.Tuple
      [ Value.Tuple [ Value.Word 0L; Value.Int 0 ];
        Value.Tuple [ Value.Word 0L; Value.Int 0 ] ]
  in
  Alcotest.(check int) "width 144" 144 (Fault.value_width v);
  (* Bit 3 lands in operand a's data word. *)
  (match Fault.flip_value [ 3 ] v with
   | Value.Tuple [ Value.Tuple [ Value.Word w; _ ]; _ ] ->
     Alcotest.(check int64) "data bit" 8L w
   | _ -> Alcotest.fail "shape");
  (* Bit 64 lands in operand a's check byte; bit 72 in b's data. *)
  (match Fault.flip_value [ 64; 72 ] v with
   | Value.Tuple
       [ Value.Tuple [ Value.Word 0L; Value.Int c ];
         Value.Tuple [ Value.Word w; Value.Int 0 ] ] ->
     Alcotest.(check int) "check bit" 1 c;
     Alcotest.(check int64) "b data bit" 1L w
   | _ -> Alcotest.fail "shape");
  (* Flipping twice is the identity; out-of-range bits are ignored. *)
  Alcotest.(check bool) "involution" true
    (Value.equal v (Fault.flip_value [ 9 ] (Fault.flip_value [ 9 ] v)));
  Alcotest.(check bool) "out of range" true
    (Value.equal v (Fault.flip_value [ 999 ] v))

(* Every shape of description, byte for byte: campaign reports
   ([e7_reports.expected]) and shell output print them. *)
let test_describe () =
  let c = secded () in
  let net = c.Examples.sc_net and ch = c.Examples.sc_bus in
  let stage = (Option.get (Netlist.find_node net "stage")).Netlist.id in
  let bus = "on channel src.out0->op_fork.in0 (id 0, node 0 -> node 1)" in
  List.iter
    (fun (f, expected) ->
       Alcotest.(check string) expected expected (Fault.describe net f))
    ([ (Fault.flip_bit ~channel:ch ~cycle:7 17,
        "flip payload bit 17 " ^ bus ^ " at cycle 7");
       (Fault.flip_bits ~channel:ch ~cycle:12 [ 3; 40 ],
        "flip payload bits {3,40} " ^ bus ^ " at cycle 12");
       (Fault.stuck_stall ~channel:ch ~cycle:5 ~duration:3,
        "stuck-at stall (S+ high) " ^ bus ^ " during cycles 5..7");
       (Fault.duplicate_token ~channel:ch ~cycle:60,
        "duplicate last token " ^ bus ^ " at cycle 60");
       (Fault.mispredict ~node:stage ~cycle:15 1,
        "force scheduler to way 1 on node stage (id 8) at cycle 15");
       ({ Fault.target = Fault.Channel ch; kind = Fault.Force_kill true;
          cycle = 0; duration = 2 },
        "forge anti-token (V- stuck high) " ^ bus ^ " during cycles 0..1") ]
     @ List.map2
         (fun f d ->
            (f, Fmt.str "%s %s at cycle %d" d bus f.Fault.cycle))
         (Fault.control_glitch ~channel:ch ~cycle:20)
         [ "stuck-at stall (S+ high)"; "drop token (V+ stuck low)" ])

(* A fault that cannot act is refused by [Fault.plan], naming it,
   before any cycle runs; [Recovery.check] passes the refusal on. *)
let test_plan_rejects () =
  let c = secded () in
  let net = c.Examples.sc_net and bus = c.Examples.sc_bus in
  let id name = (Option.get (Netlist.find_node net name)).Netlist.id in
  let src = id "src" and stage = id "stage" in
  let on_bus = "on channel src.out0->op_fork.in0 (id 0, node 0 -> node 1)" in
  let refused (f, expected) =
    match Fault.plan net [ Fault.flip_bit ~channel:bus ~cycle:3 1; f ] with
    | _ -> Alcotest.failf "accepted: %s" expected
    | exception Invalid_argument msg ->
      Alcotest.(check string) expected expected msg
  in
  List.iter refused
    [ (Fault.flip_bit ~channel:999 ~cycle:5 3,
       "Fault.plan: flip payload bit 3 on channel id 999 at cycle 5: the \
        netlist has no such channel");
      (Fault.mispredict ~node:999 ~cycle:5 1,
       "Fault.plan: force scheduler to way 1 on node id 999 at cycle 5: the \
        netlist has no such node");
      (Fault.mispredict ~node:src ~cycle:10 1,
       "Fault.plan: force scheduler to way 1 on node src (id 0) at cycle \
        10: the node is not a shared module");
      (Fault.mispredict ~node:stage ~cycle:15 2,
       "Fault.plan: force scheduler to way 2 on node stage (id 8) at cycle \
        15: the module has ways 0..1");
      (Fault.mispredict ~node:stage ~cycle:15 (-1),
       "Fault.plan: force scheduler to way -1 on node stage (id 8) at cycle \
        15: the module has ways 0..1");
      ({ Fault.target = Fault.Node stage; kind = Fault.Force_stop true;
         cycle = 4; duration = 2 },
       "Fault.plan: stuck-at stall (S+ high) on node stage (id 8) during \
        cycles 4..5: a wire fault needs a channel");
      ({ Fault.target = Fault.Channel bus; kind = Fault.Mispredict 0;
         cycle = 7; duration = 1 },
       "Fault.plan: force scheduler to way 0 " ^ on_bus
       ^ " at cycle 7: a scheduler fault needs a node") ];
  match check c ~faults:[ Fault.mispredict ~node:src ~cycle:10 1 ] with
  | _ -> Alcotest.fail "Recovery.check accepted a mispredicted source"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Recovery.check names the fault" true
      (Helpers.contains msg "not a shared module")

(* ------------------------------------------------------------------ *)
(* Structured engine errors                                             *)

let test_structured_error () =
  let eng = Engine.create (secded ~n:4 ()).Examples.sc_net in
  (match Engine.sink_stream eng 999 with
   | exception Engine.Simulation_error e ->
     Alcotest.(check (option int)) "node id" (Some 999) e.Engine.err_node;
     Alcotest.(check bool) "message rendered" true
       (Helpers.contains (Engine.error_to_string e) "not a sink")
   | _ -> Alcotest.fail "expected Simulation_error");
  (match Engine.signal eng 424242 with
   | exception Engine.Simulation_error e ->
     Alcotest.(check (option int)) "channel id" (Some 424242)
       e.Engine.err_channel
   | _ -> Alcotest.fail "expected Simulation_error");
  let wire =
    { Engine.fw_chan = 424242; fw_override = Instance.no_override;
      fw_replay = false }
  in
  match
    Engine.set_faults eng
      (Some
         { Engine.fs_first = 5;
           fs_rows = [| { Engine.fr_wires = [| wire |]; fr_predict = [] } |] })
  with
  | exception Engine.Simulation_error e ->
    Alcotest.(check (option int)) "schedule channel id" (Some 424242)
      e.Engine.err_channel
  | () -> Alcotest.fail "set_faults accepted an unknown channel"

(* ------------------------------------------------------------------ *)
(* Recovery classification on the §5.2 resilient adder                  *)

let test_single_flip_corrected () =
  let c = secded () in
  let ch = c.Examples.sc_bus in
  let r = check c ~faults:[ Fault.flip_bit ~channel:ch ~cycle:10 17 ] in
  (match r.Recovery.classification with
   | Recovery.Corrected p ->
     Alcotest.(check int) "one-cycle replay penalty" 1 p
   | c ->
     Alcotest.failf "expected corrected, got %a" Recovery.pp_classification
       c);
  Alcotest.(check bool) "no fresh violations" true
    (r.Recovery.fresh_violations = [])

let test_double_flip_detected () =
  let c = secded () in
  let ch = c.Examples.sc_bus in
  let r = check c ~faults:[ Fault.flip_bits ~channel:ch ~cycle:12 [ 3; 40 ] ] in
  match r.Recovery.classification with
  | Recovery.Detected why ->
    Alcotest.(check bool) "alarm provenance" true
      (Helpers.contains why "alarm")
  | c ->
    Alcotest.failf "expected detected, got %a" Recovery.pp_classification c

let test_control_glitch_detected () =
  let c = secded () in
  let ch = c.Examples.sc_bus in
  let r = check c ~faults:(Fault.control_glitch ~channel:ch ~cycle:20) in
  match r.Recovery.classification with
  | Recovery.Detected why ->
    Alcotest.(check bool) "monitor provenance" true
      (Helpers.contains why "protocol monitor");
    Alcotest.(check bool) "cycle provenance" true
      (Helpers.contains why "cycle");
    Alcotest.(check bool) "violations recorded" true
      (r.Recovery.fresh_violations <> [])
  | c ->
    Alcotest.failf "expected detected, got %a" Recovery.pp_classification c

(* An alarm id that names no sink is rejected by the golden run, before
   any scenario: the control glitch is detected by a monitor first, so
   classification alone would never look the alarm up. *)
let test_bogus_alarm_rejected () =
  let c = secded () in
  let faults = Fault.control_glitch ~channel:c.Examples.sc_bus ~cycle:20 in
  let bogus = (999, fun _ -> true) in
  let alarms = c.Examples.sc_alarms @ [ bogus ] in
  let rejected what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted alarm node 999" what
    | exception Invalid_argument msg ->
      Alcotest.(check string) what
        "Recovery.golden_run: alarm node 999 is not a sink" msg
  in
  rejected "golden_run" (fun () ->
      ignore (Recovery.golden_run ~cycles:120 ~alarms c.Examples.sc_net));
  rejected "Campaign.run" (fun () ->
      ignore
        (Campaign.run ~cycles:120 ~alarms c.Examples.sc_net
           ~scenarios:[ faults ]));
  match (check c ~faults).Recovery.classification with
  | Recovery.Detected why ->
    Alcotest.(check bool) "a monitor detects it first" true
      (Helpers.contains why "protocol monitor")
  | cl ->
    Alcotest.failf "expected detected, got %a" Recovery.pp_classification cl

let test_crash_has_provenance () =
  (* Dropping the valid of a retried token on the early mux's output
     desynchronizes its anti-token bookkeeping; the engine must surface
     that as a structured error with node provenance, not a bare assert. *)
  let c = secded () in
  let ch = channel_into c.Examples.sc_net "out" in
  let r =
    check c ~faults:(Fault.control_glitch ~channel:ch.Netlist.ch_id ~cycle:20)
  in
  match r.Recovery.classification with
  | Recovery.Crashed why ->
    Alcotest.(check bool) "cycle provenance" true
      (Helpers.contains why "cycle");
    Alcotest.(check bool) "node provenance" true
      (Helpers.contains why "node")
  | Recovery.Detected _ -> ()  (* monitors may beat the bookkeeping *)
  | c ->
    Alcotest.failf "expected crash or detection, got %a"
      Recovery.pp_classification c

let test_mispredict_corrected () =
  let c = secded () in
  let stage =
    match Netlist.find_node c.Examples.sc_net "stage" with
    | Some n -> n.Netlist.id
    | None -> Alcotest.fail "no stage node"
  in
  let r = check c ~faults:[ Fault.mispredict ~node:stage ~cycle:15 1 ] in
  match r.Recovery.classification with
  | Recovery.Masked | Recovery.Corrected _ -> ()
  | c ->
    Alcotest.failf "expected benign replay, got %a"
      Recovery.pp_classification c

let test_duplicate_after_drain () =
  (* Forge a token on the drained source channel: the checker must see the
     spurious extra transfer. *)
  let c = secded ~n:20 () in
  let ch = c.Examples.sc_bus in
  let r = check c ~faults:[ Fault.duplicate_token ~channel:ch ~cycle:60 ] in
  match r.Recovery.classification with
  | Recovery.Silent_corruption why ->
    Alcotest.(check bool) "spurious transfer" true
      (Helpers.contains why "spurious")
  | Recovery.Detected _ -> ()  (* also acceptable: a monitor may fire *)
  | c ->
    Alcotest.failf "expected corruption or detection, got %a"
      Recovery.pp_classification c

(* ------------------------------------------------------------------ *)
(* Campaigns                                                            *)

let test_campaign_deterministic_and_benign () =
  let c = secded () in
  let net = c.Examples.sc_net and alarms = c.Examples.sc_alarms in
  let scenarios () =
    Campaign.random_bitflips ~net ~channel:c.Examples.sc_bus ~seed:42
      ~count:25 ~from_cycle:2 ~to_cycle:60 ~bit_hi:144 ()
  in
  Alcotest.(check bool) "same seed, same scenarios" true
    (scenarios () = scenarios ());
  let s = Campaign.run ~cycles:120 net ~alarms ~scenarios:(scenarios ())
  in
  Alcotest.(check int) "all scenarios ran" 25 s.Campaign.total;
  Alcotest.(check bool) "single-bit faults are benign" true
    (Campaign.all_benign s);
  let s' = Campaign.run ~cycles:120 net ~alarms ~scenarios:(scenarios ())
  in
  Alcotest.(check bool) "same seed, same histogram" true
    (s.Campaign.histogram = s'.Campaign.histogram)

let test_campaign_double_flips_detected () =
  let c = secded () in
  let net = c.Examples.sc_net in
  let scenarios =
    Campaign.random_double_flips ~net ~channel:c.Examples.sc_bus ~seed:7
      ~count:8 ~from_cycle:2 ~to_cycle:60 ~bit_lo:0 ~bit_hi:72 ()
  in
  let s =
    Campaign.run ~cycles:120 net ~alarms:c.Examples.sc_alarms ~scenarios
  in
  Alcotest.(check int) "all detected" 8 (Campaign.count s "detected")

let suite =
  [ Alcotest.test_case "flip_value flattening" `Quick test_flip_value;
    Alcotest.test_case "describe provenance" `Quick test_describe;
    Alcotest.test_case "plan refuses faults that cannot act" `Quick
      test_plan_rejects;
    Alcotest.test_case "structured simulation errors" `Quick
      test_structured_error;
    Alcotest.test_case "single bit flip -> corrected(1)" `Quick
      test_single_flip_corrected;
    Alcotest.test_case "double bit flip -> detected" `Quick
      test_double_flip_detected;
    Alcotest.test_case "control glitch -> monitor detection" `Quick
      test_control_glitch_detected;
    Alcotest.test_case "alarm id naming no sink is rejected" `Quick
      test_bogus_alarm_rejected;
    Alcotest.test_case "crash carries node provenance" `Quick
      test_crash_has_provenance;
    Alcotest.test_case "forced mispredict -> benign replay" `Quick
      test_mispredict_corrected;
    Alcotest.test_case "duplicated token -> flagged" `Quick
      test_duplicate_after_drain;
    Alcotest.test_case "seeded campaign: deterministic, benign" `Quick
      test_campaign_deterministic_and_benign;
    Alcotest.test_case "double-flip campaign: all detected" `Quick
      test_campaign_double_flips_detected ]
